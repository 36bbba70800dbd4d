package stache

import (
	"fmt"

	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// CheckInvariants audits the directory against every node's access tags
// and returns the first violation found, or nil.  It may only run while
// the machine is quiescent (between Run calls or inside a barrier window).
//
// Invariants of the Stache protocol, per block:
//
//   - stateIdle: no node holds a readable copy.
//   - stateShared: exactly the nodes in the sharer mask hold copies, all
//     read-only.
//   - stateExcl: exactly the owner holds a copy, read-write; nobody else
//     holds any access.
//   - No line anywhere carries TagPrivate (that tag belongs to LCM).
//   - Every installed line's data is the block's home image itself, not a
//     copy of it (tempest's home lines), whatever its tag: that is what
//     lets a coherent store write memory once and a handler serve any
//     block from the home image.
//
// The audit runs in two passes.  The block-major pass checks the sparse
// positive obligations (recorded sharers and owners really hold their
// copies).  The node-major pass checks every held copy against the
// directory; it scans each node's line table sequentially, which walks
// memory linearly instead of striding across all nodes' tables per block.
func (p *Protocol) CheckInvariants() error {
	for bi := range p.entries {
		b := memsys.BlockID(bi)
		e := &p.entries[bi]
		if e.state == stateIdle {
			continue
		}
		// When embedded inside LCM, this protocol only governs
		// coherent regions; loose blocks legitimately carry private
		// tags and are audited by the LCM checker.
		if p.m.AS.RegionOfBlock(b).Kind != memsys.KindCoherent {
			continue
		}
		if e.state == stateExcl {
			if l := p.m.Nodes[int(e.owner)].Line(b); l == nil || l.Tag() != tempest.TagReadWrite {
				return fmt.Errorf("stache: block %d owner %d has tag %s", b, e.owner, lineTagName(l))
			}
			continue
		}
		// Word-skipping member iteration: O(sharers), not O(P) per block.
		for it := e.sharers.Iter(); ; {
			id, ok := it.Next()
			if !ok {
				break
			}
			if l := p.m.Nodes[id].Line(b); l == nil || l.Tag() != tempest.TagReadOnly {
				return fmt.Errorf("stache: block %d sharer %d has tag %s", b, id, lineTagName(l))
			}
		}
	}
	for id, nd := range p.m.Nodes {
		for _, chunk := range nd.InstalledLines() {
			for li := range chunk {
				l := &chunk[li]
				if l.Data == nil {
					break // unallocated arena tail
				}
				b := l.Block()
				if p.m.AS.RegionOfBlock(b).Kind != memsys.KindCoherent {
					continue
				}
				if home := p.m.AS.HomeData(b); len(l.Data) != len(home) || &l.Data[0] != &home[0] {
					return fmt.Errorf("stache: node %d's line for block %d is a copy, not the home image", id, b)
				}
				tag := l.Tag()
				if tag == tempest.TagInvalid {
					continue
				}
				if tag == tempest.TagPrivate {
					return fmt.Errorf("stache: node %d holds private tag on block %d", id, b)
				}
				switch e := &p.entries[b]; e.state {
				case stateIdle:
					return fmt.Errorf("stache: idle block %d readable at node %d (%s)", b, id, tempest.TagName(tag))
				case stateShared:
					if !e.sharers.Contains(id) {
						return fmt.Errorf("stache: block %d non-sharer %d has tag %s", b, id, tempest.TagName(tag))
					}
				case stateExcl:
					if id != int(e.owner) {
						return fmt.Errorf("stache: block %d non-owner %d has tag %s", b, id, tempest.TagName(tag))
					}
				}
			}
		}
	}
	return nil
}

// lineTagName renders a possibly-absent line's tag for error messages.
func lineTagName(l *tempest.Line) string {
	if l == nil {
		return "none"
	}
	return tempest.TagName(l.Tag())
}
