package main

import (
	"fmt"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one load point share its
// index in the workload grid; spans outside any point carry -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Point  int    `json:"point"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`   // -1 while the span is open
	// Derived spans report a phase duration the flow solver accounts for
	// itself (Network.FlowSolverStats): only End-Start is meaningful, and
	// Start is the parent's start.
	Derived bool `json:"derived,omitempty"`
}

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int
	point int
}

func newTracer() *tracer {
	// Pre-sized so recording a span never allocates inside a measured
	// point, where allocations are counted.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), cur: -1, point: -1}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a child span of the current one and makes it current.
func (t *tracer) begin(name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Name: name, Point: t.point, Start: t.now(), End: -1})
	t.cur = id
	return id
}

// end closes span id, which must be the current span.
func (t *tracer) end(id int) {
	t.spans[id].End = t.now()
	t.cur = t.spans[id].Parent
}

// derived records a child of the current span with a known duration.
func (t *tracer) derived(name string, d time.Duration) {
	start := t.spans[t.cur].Start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: t.cur, Name: name, Point: t.point,
		Start: start, End: start + d.Nanoseconds(), Derived: true})
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// layer is the module a span's name starts with: "netsim.run" → "netsim".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// selfSeconds returns every span's duration minus its children's.
func (t *tracer) selfSeconds() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// check fails if a span was never closed or is shorter than its children.
func (t *tracer) check() error {
	self := t.selfSeconds()
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s is not closed", i, s.Name)
		}
		if self[i] < -1e-6 {
			return fmt.Errorf("span %d %s is shorter than its children by %v s", i, s.Name, -self[i])
		}
	}
	return nil
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.seconds()
		}
	}
	return sum
}
