package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// A span is one timed call from the benchmark into a layer. Layer is
// the package the call lands in ("bench" for the benchmark's own round
// and client spans); Parent is the id of the span that caused it (-1
// for a root); spans of one round share Round.
type span struct {
	ID     int
	Parent int
	Lane   int
	Round  int
	Layer  string
	Name   string
	Start  time.Duration // since tracer start
	End    time.Duration
}

// tracer keeps spans in memory, one lane per goroutine that records, so
// recording takes no lock. A nil *lane records nothing: untraced runs
// pass nil and pay one pointer test per call site.
type tracer struct {
	t0    time.Time
	lanes []*lane
}

type lane struct {
	tr    *tracer
	id    int
	round int
	spans []span
	stack []int // indices into spans of the open spans
	// rootParent is the global id new stack-bottom spans hang under: a
	// client lane's spans belong to the round span on lane 0.
	rootParent int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane adds a recording lane. Lanes are created between rounds, never
// while another goroutine records.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{tr: t, id: len(t.lanes), rootParent: -1}
	t.lanes = append(t.lanes, l)
	return l
}

// laneShift packs (lane, index) into one global span id.
const laneShift = 24

// begin opens a span and returns a handle for end.
func (l *lane) begin(layer, name string) int {
	if l == nil {
		return -1
	}
	parent := l.rootParent
	if n := len(l.stack); n > 0 {
		parent = l.spans[l.stack[n-1]].ID
	}
	idx := len(l.spans)
	l.spans = append(l.spans, span{
		ID: l.id<<laneShift | idx, Parent: parent, Lane: l.id, Round: l.round,
		Layer: layer, Name: name, Start: time.Since(l.tr.t0),
	})
	l.stack = append(l.stack, idx)
	return idx
}

// end closes the span begin returned. Spans close in LIFO order.
func (l *lane) end(idx int) {
	if l == nil {
		return
	}
	l.spans[idx].End = time.Since(l.tr.t0)
	l.stack = l.stack[:len(l.stack)-1]
}

// adopt makes child's next root spans children of l's innermost open
// span, in l's round: a client goroutine's lane under the round span.
func (l *lane) adopt(child *lane) {
	if l == nil {
		return
	}
	top := l.spans[l.stack[len(l.stack)-1]]
	child.rootParent, child.round = top.ID, top.Round
}

// all returns every recorded span, ordered by start time.
func (t *tracer) all() []span {
	var out []span
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (children on different
// lanes may overlap, so the cover is the union of their intervals).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// checkNesting verifies the structural promises of the trace: every
// span closed, every child inside its parent's interval and sharing its
// round id.
func checkNesting(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s/%s never closed", s.Layer, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %s/%s has unknown parent %d", s.Layer, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %s/%s [%v,%v] escapes parent %s/%s [%v,%v]",
				s.Layer, s.Name, s.Start, s.End, p.Layer, p.Name, p.Start, p.End)
		}
		if s.Round != p.Round {
			return fmt.Errorf("span %s/%s round %d differs from parent's %d", s.Layer, s.Name, s.Round, p.Round)
		}
	}
	return nil
}

// chromeEvent is one complete ("X") event of the Chrome trace format
// (chrome://tracing, Perfetto); times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans as Chrome-trace JSON.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "round": s.Round},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
