package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// The traced run records spans around the benchmark's own calls into
// each layer — workload, trial, and each call (StartRun, Run, peek,
// verify, HTTP submit and wait, each probe) — keeps them in memory, and
// writes them as Chrome trace JSON when the run ends. Spans of one trial
// share its id. A nil *tracer records nothing, which is how the
// untraced runs that give the end-to-end numbers call the same code.

type span struct {
	ID, Parent, Trial int
	Name              string
	Start, End        time.Duration // since the tracer's origin
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

var noEnd = func() {}

// begin opens a span now and returns its id and the function that
// closes it.
func (t *tracer) begin(name string, trial, parent int) (int, func()) {
	if t == nil {
		return 0, noEnd
	}
	id := t.add(span{Parent: parent, Trial: trial, Name: name, Start: time.Since(t.t0)})
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// record adds a finished span with known bounds, for an interval the
// program reports but the benchmark cannot bracket itself (the Run
// inside an app's DFOn, whose length UDPReport.Elapsed gives).
func (t *tracer) record(name string, trial, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0)
	t.add(span{Parent: parent, Trial: trial, Name: name, Start: s, End: s + d})
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTime is one span name's totals.
type selfTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes aggregates by span name. A span's self time is its duration
// minus the part of that interval its children cover; children that
// overlap each other (concurrent clients) are counted once.
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*selfTime)
	var order []string
	for _, s := range spans {
		st, ok := byName[s.Name]
		if !ok {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - covered(s, children[s.ID])
	}
	out := make([]selfTime, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, one row (tid)
// per trial, loadable in Perfetto or about:tracing.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Trial,
			Args: map[string]int{"span": s.ID, "parent": s.Parent, "trial": s.Trial},
		}
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
