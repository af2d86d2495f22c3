package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// spanID indexes a recorded span; noSpan marks a root.
type spanID int

const noSpan spanID = -1

// span is one call into a layer, timed from the benchmark's side of the
// call. Start and end are offsets from the tracer's epoch.
type span struct {
	name       string
	op         int // op id; -1 for set-up
	parent     spanID
	start, end time.Duration
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the timed code paths are
// the same in both modes.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent for op.
func (t *tracer) begin(name string, parent spanID, op int) spanID {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: now, end: -1})
	return spanID(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
}

// call runs f inside a span named name.
func (t *tracer) call(name string, parent spanID, op int, f func()) {
	id := t.begin(name, parent, op)
	f()
	t.end(id)
}

// layerStat aggregates the closed spans of one name.
type layerStat struct {
	calls int
	total time.Duration
}

// byName sums closed spans per name.
func (t *tracer) byName() map[string]*layerStat {
	out := map[string]*layerStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		st.calls++
		st.total += s.end - s.start
	}
	return out
}

// coverage returns Σ(child spans of op roots) / Σ(op root spans): the
// share of each op's latency that the top-level layer spans account for.
// The rest is the op's self time, spent in the benchmark's own glue.
func (t *tracer) coverage() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var roots, children time.Duration
	for _, s := range t.spans {
		if s.end < 0 || s.op < 0 {
			continue
		}
		if s.parent == noSpan {
			roots += s.end - s.start
		} else if t.spans[s.parent].parent == noSpan {
			children += s.end - s.start
		}
	}
	if roots <= 0 {
		return 0
	}
	return float64(children) / float64(roots)
}

// writeChrome emits the spans as Chrome trace-event JSON (the format
// internal/trace emits for simulator timelines; Perfetto opens both).
// Each op gets its own track so concurrent service jobs do not overlap.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	childSum := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.end >= 0 && s.parent != noSpan {
			childSum[s.parent] += s.end - s.start
		}
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self := s.end - s.start - childSum[i]
		events = append(events, event{
			Name: s.name, Cat: "layer", Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.op + 1,
			Args: map[string]any{"id": i, "parent": int(s.parent), "op": s.op, "self_us": float64(self.Nanoseconds()) / 1e3},
		})
	}
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(events); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return bw.Flush()
}
