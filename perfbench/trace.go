package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded layer call. Start and End are nanoseconds since the
// tracer's origin; Parent indexes the tracer's span list (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	idx   int // index in spans, or -1 once the retention cap is reached
	name  string
	start time.Duration
	child time.Duration // time covered by the span's finished children
}

// tracer records the spans of one goroutine. Spans nest strictly (end
// closes the innermost open span), so a span's children never overlap and
// its self time is its duration minus the sum of its children's.
type tracer struct {
	name    string
	origin  time.Time
	spans   []span
	keep    int // retention cap on spans; later spans still count in the totals
	dropped int
	stack   []openSpan
	total   map[string]time.Duration
	self    map[string]time.Duration
	count   map[string]int
}

func newTracer(name string, origin time.Time, keep int) *tracer {
	return &tracer{
		name:   name,
		origin: origin,
		spans:  make([]span, 0, keep), // sized up front so recording never allocates mid-operation
		keep:   keep,
		total:  make(map[string]time.Duration),
		self:   make(map[string]time.Duration),
		count:  make(map[string]int),
	}
}

// begin opens a span named name for operation op.
func (t *tracer) begin(name string, op int) {
	start := now().Sub(t.origin)
	idx := -1
	if len(t.spans) < t.keep {
		parent := -1
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].idx
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(start)})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, openSpan{idx: idx, name: name, start: start})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	stop := now().Sub(t.origin)
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := stop - o.start
	if o.idx >= 0 {
		t.spans[o.idx].End = int64(stop)
	}
	t.total[o.name] += d
	t.self[o.name] += d - o.child
	t.count[o.name]++
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
	return d
}

// traceFile is the JSON written at the end of a traced run: the retained
// spans of every tracer (one per goroutine that issued operations).
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Tracers  []tracerSpans `json:"tracers"`
}

type tracerSpans struct {
	Name    string `json:"name"`
	Dropped int    `json:"dropped"`
	Spans   []span `json:"spans"`
}

func writeTrace(path string, f traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// report prints the tracer's layers: span count, total and self time.
func (t *tracer) report(w io.Writer) {
	names := make([]string, 0, len(t.total))
	for k := range t.total {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-14s %-10s %9d spans %12.3f ms total %12.3f ms self\n",
			t.name, k, t.count[k], t.total[k].Seconds()*1e3, t.self[k].Seconds()*1e3)
	}
}
