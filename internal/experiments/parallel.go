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

// runIndexed executes n independent jobs with at most `parallel` workers.
// Job i writes its own result slot, so output order is input order
// regardless of scheduling; the lowest-index error wins, matching what a
// serial loop that failed fast would have reported first.
func runIndexed(parallel, n int, job func(i int) error) error {
	parallel = Parallelism(parallel)
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := make(chan int)
	// failed makes the pool fail fast: once any job errors, in-flight jobs
	// finish but no further jobs start, matching the serial path's
	// stop-on-first-error behavior up to the in-flight window.
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if failed.Load() {
					continue
				}
				if err := job(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepRanks runs point once per rank count under c.Parallel and returns
// the rows in ladder order. Every sweep point builds its own cluster and
// kernel, so a parallel sweep is byte-identical to a serial one.
func sweepRanks[R any](c Config, ranks []int, point func(Config, int) (R, error)) ([]R, error) {
	rows := make([]R, len(ranks))
	err := runIndexed(c.Parallel, len(ranks), func(i int) error {
		var err error
		rows[i], err = point(c, ranks[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RunAll executes the runners for the given artifact ids, honouring
// c.Parallel, and returns results in input order. Unknown ids fail before
// anything runs. Each runner receives the same Config, so sweeps inside an
// experiment (ranks, fig5, fig12) parallelize their own points too, all
// drawing from the same worker budget only in the sense that the host
// scheduler time-slices them — determinism is unaffected either way.
func RunAll(c Config, ids []string) ([]Result, error) {
	runners := make([]Runner, len(ids))
	for i, id := range ids {
		r, ok := Find(id)
		if !ok {
			return nil, &UnknownArtifactError{ID: id}
		}
		runners[i] = r
	}
	results := make([]Result, len(runners))
	err := runIndexed(c.Parallel, len(runners), func(i int) error {
		res, err := runners[i].Run(c)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// UnknownArtifactError reports a RunAll id with no registered runner.
type UnknownArtifactError struct{ ID string }

func (e *UnknownArtifactError) Error() string {
	return "experiments: unknown artifact " + e.ID
}
