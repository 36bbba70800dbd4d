package serve

import (
	"sync"
	"time"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one NDJSON progress line of a job's stream.  Events carry no
// host timestamps so that a job's event log, like its result, is a pure
// function of the tuple (Seq orders them).
type Event struct {
	Seq   int    `json:"seq"`
	Event string `json:"event"` // queued|started|cell|output|done|failed|cancelled
	Job   string `json:"job"`

	// Grid cell progress ("cell" events).
	Cell      string `json:"cell,omitempty"`
	System    string `json:"system,omitempty"`
	Done      int    `json:"done,omitempty"`
	Total     int    `json:"total,omitempty"`
	SimCycles int64  `json:"simcycles,omitempty"`

	// One harness output line ("output" events).
	Line string `json:"line,omitempty"`

	// Terminal details: Cache is "hit" or "miss" on "done"; Code and
	// Reason explain "cancelled" (503 = server draining before start);
	// Error explains "failed".
	Cache  string `json:"cache,omitempty"`
	Code   int    `json:"code,omitempty"`
	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Job is one submitted campaign and its event log.  The log is append-
// only under mu; readers block on cond until new events or a terminal
// state arrive, so a progress stream needs no per-subscriber channels
// and a slow client can never stall the runner.
type Job struct {
	ID   string
	Spec JobSpec
	// Key is the result's content address.
	Key string

	mu     sync.Mutex
	cond   sync.Cond
	state  State
	events []Event
	body   []byte
	ctype  string
	cache  string // "hit" | "miss"
	errMsg string
	wall   time.Duration
	done   chan struct{}
}

func newJob(id string, spec JobSpec, key string) *Job {
	j := &Job{ID: id, Spec: spec, Key: key, state: StateQueued, done: make(chan struct{})}
	j.cond.L = &j.mu
	j.publish(Event{Event: "queued"})
	return j
}

// publish appends ev to the log (stamping Seq and Job) and wakes readers.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	ev.Seq = len(j.events)
	ev.Job = j.ID
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// begin moves queued -> running; it returns false if the job was already
// cancelled (a drain won the race), in which case the worker must skip it.
func (j *Job) begin() bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.mu.Unlock()
	j.publish(Event{Event: "started"})
	return true
}

// terminate moves the job to a final state, records the terminal event,
// and releases every waiter.  It is a no-op if the job is already final.
func (j *Job) terminate(state State, ev Event, body []byte, ctype, errMsg string, wall time.Duration) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.body = body
	j.ctype = ctype
	j.errMsg = errMsg
	j.wall = wall
	j.mu.Unlock()
	j.publish(ev)
	close(j.done)
}

// finish completes the job successfully with its result bytes.  cache is
// "hit" or "miss".
func (j *Job) finish(body []byte, ctype, cache string, wall time.Duration) {
	j.mu.Lock()
	j.cache = cache
	j.mu.Unlock()
	j.terminate(StateDone, Event{Event: "done", Cache: cache}, body, ctype, "", wall)
}

// fail completes the job with an error.
func (j *Job) fail(msg string, wall time.Duration) {
	j.terminate(StateFailed, Event{Event: "failed", Error: msg}, nil, "", msg, wall)
}

// cancel completes a never-started job with a structured terminal event,
// so progress streams end with an explanation instead of hanging on a
// dead connection.  code follows HTTP semantics (503 = server draining).
func (j *Job) cancel(code int, reason string) {
	j.terminate(StateCancelled, Event{Event: "cancelled", Code: code, Reason: reason}, nil, "", reason, 0)
}

// Result returns the result bytes once the job is done.
func (j *Job) Result() (body []byte, ctype, cache string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, "", "", false
	}
	return j.body, j.ctype, j.cache, true
}

// eventsFrom returns the events at index >= from, blocking until at
// least one exists or the job is terminal.  final is true once the
// returned slice reaches the end of a terminated job's log, i.e. the
// stream is complete.
func (j *Job) eventsFrom(from int) (evs []Event, final bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for from >= len(j.events) && !j.state.Terminal() {
		j.cond.Wait()
	}
	evs = append(evs, j.events[from:]...)
	return evs, j.state.Terminal() && from+len(evs) == len(j.events)
}

// status is the wire shape of GET /jobs/{id}.
type status struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`
	Cache string  `json:"cache,omitempty"`
	Error string  `json:"error,omitempty"`
	// WallNS is the host runtime of a finished run (0 for cache hits and
	// unfinished jobs); informational, never part of result bytes.
	WallNS int64 `json:"wall_ns,omitempty"`
}

func (j *Job) status() status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return status{
		ID: j.ID, State: j.state, Spec: j.Spec,
		Cache: j.cache, Error: j.errMsg, WallNS: j.wall.Nanoseconds(),
	}
}
