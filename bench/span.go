package lcmperf

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"time"
)

// span is one traced interval: what ran, when, under which parent span,
// and for which request or cell.
type span struct {
	name       string
	id         string
	parent     int // index into tracer.spans, -1 for a root
	lane       int // client connection, the Chrome trace's tid
	start, end time.Time
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, which is how the untraced passes run.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name, id string, parent, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, lane: lane, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds from the first span), loadable in Perfetto.  Each
// event's args name the span, its parent span (-1: none) and its ID.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		ev := event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:  float64(s.start.Sub(t.spans[0].start).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
		}
		ev.Args = map[string]string{"span": strconv.Itoa(i), "parent": strconv.Itoa(s.parent)}
		if s.id != "" {
			ev.Args["id"] = s.id
		}
		events = append(events, ev)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
