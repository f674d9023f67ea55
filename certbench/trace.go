package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around each call into a layer's
// public functions. Spans stay in memory and are written as one Chrome trace
// when the run ends. A nil *tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Group ties together the spans of one pass or one
// partition; Lane is the goroutine role
// the span ran on and becomes the Chrome trace thread.
type span struct {
	Name   string
	ID     int
	Parent int
	Group  string
	Lane   string
	Start  time.Duration
	End    time.Duration
}

func newTracer() *tracer { return &tracer{t0: now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int, group, lane string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Group: group, Lane: lane, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span, for intervals known only afterwards.
func (t *tracer) record(name string, parent int, group, lane string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Group: group, Lane: lane,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// layerTime is the total and self duration of every span with one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	var names []string
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		dur := s.End - s.Start
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered(s, children[s.ID])
	}
	sort.Strings(names)
	out := make([]layerTime, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
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
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" events, one
// thread per lane).
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	lanes := make(map[string]int)
	var events []event
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.Lane}})
		}
		events = append(events, event{Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "group": s.Group}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
