package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one run share its run id; parent indexes the enclosing
// span (-1 at top level).
type span struct {
	name       string
	run        int
	parent     int
	start, end time.Duration // since the tracer's origin
	allocBytes uint64        // heap bytes allocated inside the span
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so untraced runs execute the same code paths.
type tracer struct {
	origin time.Time
	run    int
	spans  []span
	open   []int
	ms     runtime.MemStats
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// heapAllocs reads the exact cumulative count of heap bytes allocated.
func heapAllocs(ms *runtime.MemStats) uint64 {
	runtime.ReadMemStats(ms)
	return ms.TotalAlloc
}

// timed runs fn inside a span named name.
func (tr *tracer) timed(name string, fn func() error) error {
	if tr == nil {
		return fn()
	}
	parent := -1
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{name: name, run: tr.run, parent: parent})
	tr.open = append(tr.open, id)
	a0 := heapAllocs(&tr.ms)
	tr.spans[id].start = time.Since(tr.origin)
	err := fn()
	tr.spans[id].end = time.Since(tr.origin)
	tr.spans[id].allocBytes = heapAllocs(&tr.ms) - a0
	tr.open = tr.open[:len(tr.open)-1]
	return err
}

// nextRun starts a new run id; spans recorded after it belong to that run.
func (tr *tracer) nextRun() {
	if tr != nil {
		tr.run++
	}
}

// selfTimes returns each span's duration minus the part its direct
// children cover.
func (tr *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(tr.spans))
	for i, s := range tr.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// durations returns, per run that recorded one, the total duration and
// allocated bytes of the spans named name.
func (tr *tracer) durations(name string) (secs []float64, allocMB []float64) {
	byRun := map[int]int{}
	for _, s := range tr.spans {
		if s.name != name {
			continue
		}
		i, ok := byRun[s.run]
		if !ok {
			i = len(secs)
			byRun[s.run] = i
			secs = append(secs, 0)
			allocMB = append(allocMB, 0)
		}
		secs[i] += (s.end - s.start).Seconds()
		allocMB[i] += float64(s.allocBytes) / 1e6
	}
	return secs, allocMB
}

// summary writes one line per span name: count, median duration and
// median self time, in first-recorded order.
func (tr *tracer) summary(w io.Writer) {
	self := tr.selfTimes()
	var order []string
	dur := map[string][]float64{}
	selfBy := map[string][]float64{}
	for i, s := range tr.spans {
		if _, ok := dur[s.name]; !ok {
			order = append(order, s.name)
		}
		dur[s.name] = append(dur[s.name], (s.end - s.start).Seconds())
		selfBy[s.name] = append(selfBy[s.name], self[i].Seconds())
	}
	fmt.Fprintf(w, "spans (%d recorded over %d runs):\n", len(tr.spans), tr.run)
	fmt.Fprintf(w, "  %-24s %6s %12s %12s\n", "span", "count", "median_s", "self_med_s")
	for _, name := range order {
		fmt.Fprintf(w, "  %-24s %6d %12.6f %12.6f\n", name, len(dur[name]), median(dur[name]), median(selfBy[name]))
	}
}

// median returns the median of xs (0 for none), interpolating between the
// middle pair for even counts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
