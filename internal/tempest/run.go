package tempest

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"lcm/internal/sched"
)

// This file is the hardened execution core: RunErr recovers node panics into
// structured per-node errors, aborts the barrier so every sibling unwinds
// instead of deadlocking, and — when a watchdog is armed — bounds the
// wall-clock cost of a wedged node, returning a diagnostic dump instead of
// hanging.

// ErrUnresponsive marks a node that neither finished nor died within the
// post-failure grace period (its coroutine is leaked, and the trampoline
// with it; the machine's state must not be trusted afterwards).
var ErrUnresponsive = errors.New("tempest: node unresponsive after run failure")

// NodeError is one node's structured failure.
type NodeError struct {
	Node int
	Err  error
	// Stack is the node's stack at the point of death (empty for nodes that
	// are unresponsive or never began).
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
// the scheduler's trampoline (sched.Run), which RunErr starts and
// supervises: exactly one body is executing at any time, and a body that
// blocks in host time stops the whole machine.
//
// A node "fails" by panicking (a protocol bug, an injected unrecoverable
// fault, or a retry budget running out).  The first failure aborts the
// machine's barrier and poisons the scheduler, so every sibling — parked at
// the barrier, in a handler's yield, on a simulated lock — is unwound from
// where it is parked, without running another line of protocol code, and is
// reported as collateral; so is a sibling that had not begun.  A node that
// returns while a sibling still waits for it is a deadlock, reported the
// same way the moment the run queue empties.  When Machine.Watchdog is
// positive, a barrier round that stalls past the bound — some node holds the
// token and never reaches a scheduling point — is aborted with per-node
// diagnostics; the trampoline is wedged with that node, so RunErr unwinds
// the parked ones itself, and if the node still fails to unwind within a
// grace period it is reported unresponsive (its coroutine and the trampoline
// are leaked and the machine is poisoned — read nothing further from it).
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
	m.bar.arm(sc, m.Watchdog, m.barrierDiagnostics)
	runAhead, _ := m.RunAhead()
	m.setRunAhead(runAhead)
	if runAhead {
		sc.SetRunAhead(m.applyHead)
	}

	// One record per node, under mu: the parked nodes of a stalled run end on
	// this goroutine while the token holder may yet end on the trampoline's.
	type record struct {
		began, finished bool
		err             *NodeError
	}
	var (
		mu   sync.Mutex
		recs = make([]record, m.P)
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		sc.Run(func(id int) {
			nd, returned := m.Nodes[id], false
			mu.Lock()
			recs[id].began = true
			mu.Unlock()
			defer func() {
				var err error
				if r := recover(); r != nil {
					err = panicError(r)
				} else if !returned {
					err = errGoexit
				}
				mu.Lock()
				recs[id].finished = true
				if err != nil {
					recs[id].err = &NodeError{
						Node:       id,
						Err:        err,
						Stack:      string(debug.Stack()),
						Collateral: errors.Is(err, ErrAborted),
					}
				}
				mu.Unlock()
				if err != nil {
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

	hung := false
	if m.Watchdog > 0 {
		select {
		case <-done:
		case <-sc.Poisoned():
			// The run failed, perhaps by stalling: a token holder wedged in
			// host time has the trampoline wedged inside it, so unwind the
			// parked nodes from here, then give the holder a grace period.
			sc.Unwind()
			select {
			case <-done:
			case <-time.After(2*m.Watchdog + 500*time.Millisecond):
				hung = true
			}
		}
	} else {
		// The caller asked for no wall-clock bounds.
		<-done
	}

	mu.Lock()
	var errs []*NodeError
	for id, r := range recs {
		switch {
		case r.err != nil:
			errs = append(errs, r.err)
		case !r.began:
			// Only a poisoned run leaves a node without its first grant.
			errs = append(errs, &NodeError{Node: id, Err: m.bar.poisonErr(), Collateral: true})
		case !r.finished:
			errs = append(errs, &NodeError{Node: id, Err: ErrUnresponsive})
		}
	}
	mu.Unlock()
	if len(errs) == 0 {
		return nil
	}
	sort.SliceStable(errs, func(i, j int) bool {
		if errs[i].Collateral != errs[j].Collateral {
			return !errs[i].Collateral
		}
		return errs[i].Node < errs[j].Node
	})
	re := &RunError{Nodes: errs}
	if !hung {
		// The trampoline has returned: the machine is quiescent and readable.
		re.Diagnostics = m.Diagnostics()
	} else if se := new(StallError); errors.As(m.bar.Err(), &se) {
		// Unsafe to touch node state with the token holder still out there;
		// reuse the dump the watchdog took under the barrier lock.
		re.Diagnostics = se.Diagnostics
	}
	return re
}

// panicError converts a recovered panic value into an error.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", r)
}

// Diagnostics renders a per-node dump — clock, key counters, access-tag
// histogram, and the tail of the trace — for failure reports.  Call only
// while the machine is quiescent.
func (m *Machine) Diagnostics() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine: P=%d protocol=%s blocks=%d\n", m.P, m.protocol.Name(), m.AS.NumBlocks())
	for _, nd := range m.Nodes {
		var tags [4]int
		for _, l := range nd.lines {
			if l != nil && l.Tag() < 4 {
				tags[l.Tag()]++
			}
		}
		fmt.Fprintf(&sb, "%s tags[inv=%d ro=%d rw=%d priv=%d]\n", nodeDiagnostics(nd, nd.Clock()),
			tags[TagInvalid], tags[TagReadOnly], tags[TagReadWrite], tags[TagPrivate])
		if m.Trace != nil {
			if evts := m.Trace.NodeEvents(nd.ID); len(evts) > 0 {
				fmt.Fprintf(&sb, "         last trace: %s\n", evts[len(evts)-1])
			}
		}
	}
	return sb.String()
}

// barrierDiagnostics is the watchdog's stall-time dump.  It runs on the
// timer's goroutine, with the barrier lock held, while the node that holds
// the token may be running: nodes parked at the barrier (present[i]) cannot
// be resumed before the abort, so what only they write is readable race-free;
// what other nodes' handlers write to them (stolen cycles, tags, the trace)
// and everything about the absent nodes stays out of the dump.
func (m *Machine) barrierDiagnostics(present []bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine: P=%d protocol=%s blocks=%d\n", m.P, m.protocol.Name(), m.AS.NumBlocks())
	for _, nd := range m.Nodes {
		if present[nd.ID] {
			sb.WriteString(nodeDiagnostics(nd, nd.clock) + "\n")
		} else {
			fmt.Fprintf(&sb, "node %2d: NOT AT BARRIER (stalled or dead)\n", nd.ID)
		}
	}
	return sb.String()
}

// nodeDiagnostics renders clock and the part of a node's state that only
// the node itself writes; the caller must know it to be parked or finished.
func nodeDiagnostics(nd *Node, clock int64) string {
	return fmt.Sprintf("node %2d: clock=%d barriers=%d misses=%d flushes=%d retries=%d",
		nd.ID, clock, nd.Ctr.Barriers, nd.Ctr.Misses, nd.Ctr.Flushes, nd.Ctr.FaultRetries)
}
