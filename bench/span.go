package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call: which layer, when, which span caused it, and which op it
// belongs to. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: the traced pass replays ops sequentially.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// in times fn as a span.
func (t *tracer) in(name string, op, parent int, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its direct children cover. Overlapping children (parallel
// parts) are merged before subtracting, so a child interval is never
// counted twice.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// byName groups span durations (milliseconds) by span name, summed per
// op: a layer entered several times in one op (one pass runs several
// queries) counts once per op, with its total.
func byName(spans []span, durs []time.Duration) map[string][]float64 {
	type key struct {
		name string
		op   int
	}
	sums := make(map[key]time.Duration)
	var order []key
	for i, s := range spans {
		k := key{s.Name, s.Op}
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += durs[i]
	}
	out := make(map[string][]float64)
	for _, k := range order {
		out[k.name] = append(out[k.name], ms(sums[k]))
	}
	return out
}

// durations returns each span's own End − Start.
func durations(spans []span) []time.Duration {
	d := make([]time.Duration, len(spans))
	for i, s := range spans {
		d[i] = time.Duration(s.End - s.Start)
	}
	return d
}

// writeJSON writes v, indented, to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
