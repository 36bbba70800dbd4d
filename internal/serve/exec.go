package serve

import (
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"time"

	"lcm/internal/harness"
)

// execute runs one dequeued job to a terminal state.  It is the queue's
// worker body: the job is already in StateRunning.
func (s *Server) execute(j *Job) {
	start := time.Now()
	body, err := s.run(j)
	wall := time.Since(start)
	s.stats.JobExecuted(wall.Seconds())
	if err != nil {
		j.fail(err.Error(), wall)
		return
	}
	s.cache.Put(j.Key, body, j.ID)
	j.finish(body, "miss", wall)
}

// run computes a job's result.  A panic on the way is that job's failure
// and leaves the worker and the process alive: a machine's RunErr contains
// what its nodes do, but a grid also runs code before any machine exists,
// on the worker's own goroutine.
func (s *Server) run(j *Job) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	sp := j.Spec

	suite := harness.New(io.Discard)
	if suite.Cfg, err = sp.config(); err != nil {
		return nil, err
	}
	suite.Scale = sp.Scale
	suite.KVSkew = sp.KVSkew
	suite.KVReshard = sp.KVReshard

	suite.OnProgress = func(p harness.Progress) {
		j.publish(Event{
			Event: "cell", Cell: p.Cell, System: p.Result.System.String(),
			Done: p.Done, Total: p.Total, SimCycles: p.Result.Cycles,
		})
	}
	return s.runGrid(j, suite, sp)
}

// runGrid executes a grid job's cells, threads the per-record counters
// into the metrics registry, and renders the deterministic BENCH bytes —
// the same bytes `lcmbench -detjson` writes for this tuple.
func (s *Server) runGrid(j *Job, suite *harness.Suite, sp JobSpec) ([]byte, error) {
	cells, err := harness.ParseCells(sp.Cells)
	if err != nil {
		return nil, err
	}
	rows, err := suite.RunCells(cells)
	if err != nil {
		return nil, err
	}
	var failures []string
	var samples []RecordSample
	for _, r := range harness.Results(rows) {
		if r.Err != nil {
			failures = append(failures, fmt.Sprintf("%s/%s: %v", r.Label(), r.System, r.Err))
		}
		samples = append(samples, RecordSample{
			Job: j.ID, Workload: r.Workload, Sched: r.Sched,
			System: r.System.String(), SimCycles: r.Cycles, C: r.C, Host: r.Host,
		})
	}
	s.stats.AddRecords(samples)
	if len(failures) > 0 {
		return nil, fmt.Errorf("failed cells:\n%s", strings.Join(failures, "\n"))
	}
	return harness.MarshalDeterministic(suite.Cfg, suite.Scale, rows)
}
