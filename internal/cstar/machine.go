package cstar

import (
	"lcm/internal/core"
	"lcm/internal/cost"
	"lcm/internal/stache"
	"lcm/internal/tempest"
)

// NewProtocol returns the coherence protocol implementing sys.
func NewProtocol(sys System) tempest.Protocol {
	switch sys {
	case LCMscc:
		return core.New(core.SCC)
	case LCMmcc:
		return core.New(core.MCC)
	default:
		return stache.New()
	}
}

// NewMachine builds a simulated machine with the protocol matching sys.
// The caller allocates aggregates and then calls Freeze on the machine.
func NewMachine(p int, blockSize uint32, cm cost.Model, sys System) *tempest.Machine {
	m := tempest.New(p, blockSize, cm)
	m.SetProtocol(NewProtocol(sys))
	return m
}

// DataPolicy returns the memory policy a C** compiler gives the shared
// aggregate data of a parallel function under sys: loosely coherent under
// LCM, plain coherent under the Copying baseline.
func DataPolicy(sys System) core.Policy {
	if sys.IsLCM() {
		return core.LooselyCoherent()
	}
	return core.Coherent()
}
