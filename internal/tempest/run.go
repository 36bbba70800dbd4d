package tempest

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"

	"lcm/internal/sched"
	"lcm/internal/trace"
)

// This file is the hardened execution core: RunErr recovers node panics into
// structured per-node errors and aborts the barrier so every sibling unwinds
// instead of deadlocking, returning a diagnostic dump instead of hanging.

// NodeError is one node's structured failure.
type NodeError struct {
	Node int
	Err  error
	// Stack is the node's stack at the point of death (empty for nodes that
	// never began).
	Stack string
	// Collateral marks nodes that died only because the barrier was
	// aborted on behalf of another node's failure.
	Collateral bool
}

func (e *NodeError) Error() string {
	return fmt.Sprintf("node %d: %v", e.Node, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *NodeError) Unwrap() error { return e.Err }

// RunError aggregates every node failure of one Run.
type RunError struct {
	// Nodes holds one entry per failed node, primary failures first.
	Nodes []*NodeError
	// Diagnostics is the per-node machine dump taken when the run
	// failed (clock, counters, tag histogram, last trace events).
	Diagnostics string
}

// First returns the first primary (non-collateral) failure, falling back
// to the first failure of any kind.
func (e *RunError) First() *NodeError {
	for _, ne := range e.Nodes {
		if !ne.Collateral {
			return ne
		}
	}
	if len(e.Nodes) > 0 {
		return e.Nodes[0]
	}
	return nil
}

func (e *RunError) Error() string {
	first := e.First()
	if first == nil {
		return "tempest: run failed"
	}
	collateral := 0
	for _, ne := range e.Nodes {
		if ne.Collateral {
			collateral++
		}
	}
	msg := fmt.Sprintf("tempest: run failed: %v", first)
	if collateral > 0 {
		msg += fmt.Sprintf(" (+%d sibling nodes released by barrier abort)", collateral)
	}
	return msg
}

// Unwrap exposes the first primary failure to errors.Is/As: callers can
// extract the *NodeError itself (errors.As) or keep unwrapping through
// it to the root cause and branch on sentinels like fault.ErrKilled
// (errors.Is).
func (e *RunError) Unwrap() error {
	if first := e.First(); first != nil {
		return first
	}
	return nil
}

// Run executes body on every node (SPMD) and returns when all nodes finish.
// The machine must be frozen.  If any node fails, Run panics with the
// *RunError that RunErr would return; callers that want to handle failure
// call RunErr instead.
func (m *Machine) Run(body func(n *Node)) {
	if err := m.RunErr(body); err != nil {
		panic(err)
	}
}

// errGoexit is the failure of a node whose body ended in runtime.Goexit (a
// t.FailNow, say): it neither returned nor panicked.
var errGoexit = errors.New("tempest: node body called runtime.Goexit")

// RunErr executes body on every node (SPMD) and returns a structured error
// when any node fails.  The node bodies are the coroutines of one goroutine,
// the scheduler's trampoline (sched.Run), which RunErr starts and waits for:
// exactly one body is executing at any time, and a body that blocks in host
// time, or never reaches a scheduling point, stops the whole machine — and
// RunErr — for as long as it does.  The trampoline has a goroutine of its own
// so that a body's runtime.Goexit ends that goroutine, not the caller's.
//
// A node "fails" by panicking (a protocol bug, an injected unrecoverable
// fault, or a retry budget running out).  The first failure aborts the
// machine's barrier and poisons the scheduler, so every sibling — parked at
// the barrier, in a handler's yield, on a simulated lock — is unwound from
// where it is parked, without running another line of protocol code, and is
// reported as collateral; so is a sibling that had not begun.  A node that
// returns while a sibling still waits for it is a deadlock, reported the
// same way the moment the run queue empties.
//
// On failure the machine must be considered poisoned: the barrier stays
// aborted and protocol state may be mid-transition.  Build a fresh
// machine to run again.
func (m *Machine) RunErr(body func(n *Node)) error {
	if !m.frozen {
		panic("tempest: Run before Freeze")
	}
	if m.cfgErr != nil {
		return m.cfgErr
	}
	// Each run gets a fresh scheduler; a deadlock it detects becomes an abort.
	sc := sched.New(m.P, m.SchedSeed)
	if m.SchedHook != nil {
		m.SchedHook(sc)
	}
	sc.OnDeadlock(func() {
		m.bar.Abort(errors.New("tempest: scheduler deadlock: all live nodes blocked"))
	})
	m.schedder = sc
	m.bar.arm(sc)
	m.epoch++ // no read-only declaration outlives a run
	runAhead, _ := m.RunAhead()
	m.setRunAhead(runAhead)
	if runAhead {
		sc.SetRunAhead(m.applyHead)
	}

	// One record per node, written by the node's own coroutine.
	type record struct {
		began bool
		err   *NodeError
	}
	recs := make([]record, m.P)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc.Run(func(id int) {
			nd, returned := m.Nodes[id], false
			recs[id].began = true
			defer func() {
				var err error
				if r := recover(); r != nil {
					err = panicError(r)
				} else if !returned {
					err = errGoexit
				}
				if err != nil {
					recs[id].err = &NodeError{
						Node:       id,
						Err:        err,
						Stack:      string(debug.Stack()),
						Collateral: errors.Is(err, ErrAborted),
					}
					// Abort poisons the scheduler before sched.Run marks the node
					// Done: the token is never handed onward from a dying run.
					m.bar.Abort(fmt.Errorf("node %d died: %w", id, err))
				}
			}()
			body(nd)
			nd.drain() // the fold reads cycles other nodes' effects steal
			nd.FoldStolen()
			returned = true
		})
	}()
	<-done

	var errs []*NodeError
	for id, r := range recs {
		switch {
		case r.err != nil:
			errs = append(errs, r.err)
		case !r.began:
			// Only a poisoned run leaves a node without its first grant.
			errs = append(errs, &NodeError{Node: id, Err: m.bar.poisonErr(), Collateral: true})
		}
	}
	if len(errs) == 0 {
		return nil
	}
	sort.SliceStable(errs, func(i, j int) bool {
		if errs[i].Collateral != errs[j].Collateral {
			return !errs[i].Collateral
		}
		return errs[i].Node < errs[j].Node
	})
	// The trampoline has returned: the machine is quiescent and readable.
	return &RunError{Nodes: errs, Diagnostics: m.Diagnostics()}
}

// panicError converts a recovered panic value into an error.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", r)
}

// Diagnostics renders a per-node dump — clock, key counters, access-tag
// histogram, and the node's last traced event — for failure reports.  Call
// only while the machine is quiescent.
func (m *Machine) Diagnostics() string {
	var sb strings.Builder
	var evts []trace.Event
	if m.Trace != nil {
		evts = m.Trace.Events()
	}
	fmt.Fprintf(&sb, "machine: P=%d protocol=%s blocks=%d\n", m.P, m.protocol.Name(), m.AS.NumBlocks())
	for _, nd := range m.Nodes {
		var tags [4]int
		for _, t := range nd.tags {
			if t&(lineHome|lineCopy) != 0 {
				tags[t>>tagShift]++
			}
		}
		fmt.Fprintf(&sb, "node %2d: clock=%d barriers=%d misses=%d flushes=%d retries=%d tags[inv=%d ro=%d rw=%d priv=%d]\n",
			nd.ID, nd.Clock(), nd.Ctr.Barriers, nd.Ctr.Misses, nd.Ctr.Flushes, nd.Ctr.FaultRetries,
			tags[TagInvalid], tags[TagReadOnly], tags[TagReadWrite], tags[TagPrivate])
		for i := len(evts) - 1; i >= 0; i-- {
			if int(evts[i].Node) == nd.ID {
				fmt.Fprintf(&sb, "         last trace: %s\n", evts[i])
				break
			}
		}
	}
	return sb.String()
}
