package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel experiment harness. Simulation kernels share
// no mutable state — every experiment (and every sweep point inside an
// experiment) builds its own platform.Machine or platform.Cluster — so
// independent artifacts can execute concurrently on real CPUs while each
// kernel stays perfectly deterministic in virtual time. Results are
// assembled by index, never by completion order, so a parallel run's
// output is byte-identical to a serial run's.

// Parallelism resolves the configured worker count: 0 (the Config zero
// value) stays serial, negative means one worker per CPU core.
func Parallelism(n int) int {
	if n == 0 {
		return 1
	}
	if n < 0 {
		return runtime.NumCPU()
	}
	return n
}

// sweep runs run once per point with at most Parallelism(c.Parallel)
// workers (one worker is a serial run) and returns the results in point
// order, never completion order. Every point builds its own machine or
// cluster and kernel, so a parallel sweep is byte-identical to a serial
// one. The lowest-index error wins, matching what a serial loop that
// failed fast would have reported first.
func sweep[P, R any](c Config, points []P, run func(Config, P) (R, error)) ([]R, error) {
	out := make([]R, len(points))
	errs := make([]error, len(points))
	next := make(chan int)
	// failed makes the pool fail fast: once any point errors, in-flight
	// points finish but no further points start, a serial loop's
	// stop-on-first-error behavior up to the in-flight window.
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(Parallelism(c.Parallel), len(points)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if failed.Load() {
					continue
				}
				if out[i], errs[i] = run(c, points[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range points {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunAll executes the runners for the given artifact ids, honouring
// c.Parallel, and returns results in input order. Unknown ids fail before
// anything runs. Each runner receives the same Config, so the sweeps
// inside an experiment (fig5, fig12, ranks, tune, prefetch, recovery and
// dataservice) parallelize their own points too, all drawing from the
// same worker budget only in the sense that the host scheduler
// time-slices them — determinism is unaffected either way.
func RunAll(c Config, ids []string) ([]Result, error) {
	runners := make([]Runner, len(ids))
	for i, id := range ids {
		r, ok := Find(id)
		if !ok {
			return nil, &UnknownArtifactError{ID: id}
		}
		runners[i] = r
	}
	return sweep(c, runners, func(c Config, r Runner) (Result, error) { return r.Run(c) })
}

// UnknownArtifactError reports a RunAll id with no registered runner.
type UnknownArtifactError struct{ ID string }

func (e *UnknownArtifactError) Error() string {
	return "experiments: unknown artifact " + e.ID
}
