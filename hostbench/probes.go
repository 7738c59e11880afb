package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
	"repro/internal/tf/tfio"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Layer probes replay the first files of a workload's own population on a
// fresh machine through one boundary at a time, from a single runnable sim
// thread, so host time read inside the thread is that boundary's own cost.
// The cooperative kernel runs one thread at a time: a span around a
// blocking call inside a multi-thread run would include every other
// thread's work, which is why per-op costs come from probes.

const (
	// probeFiles is the population prefix the read probes replay.
	probeFiles = 1024
	// probeWriteFiles is how many files the write probes rewrite; the VFS
	// keeps written content (up to 4 MiB a file), so this bounds memory.
	probeWriteFiles = 16
	// probeReps repetitions per probe; the median is reported.
	probeReps = 7
	// probeRepTime is how long one repetition repeats its pass, so a
	// repetition spans many scheduler ticks.
	probeRepTime = 20 * time.Millisecond
	// probeSimOps is the pass length of the kernel probes.
	probeSimOps = 1000
)

// probeSpec names what a workload's probes replay.
type probeSpec struct {
	build func(*vfs.FS, workload.DatasetSpec) (*workload.Dataset, error)
	spec  func(seed int64) workload.DatasetSpec
	mapFn tfdata.MapFunc
	model func() *keras.Model
}

// probeMachine boots a fresh single node holding the workload's
// population and returns it with the population's first n files.
func (p probeSpec) probeMachine(seed int64, n int) (*platform.Machine, []string, error) {
	m := platform.NewKebnekaise(platform.Options{})
	d, err := p.build(m.FS, p.spec(seed))
	if err != nil {
		return nil, nil, err
	}
	return m, d.Paths[:min(n, len(d.Paths))], nil
}

// cost is a probe's host time and heap allocations per op.
type cost struct {
	ns     float64
	allocs float64
}

// meter reads host time and exact heap allocation counts.
type meter struct {
	ms runtime.MemStats
	t0 time.Time
	a0 uint64
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms)
	m.a0 = m.ms.Mallocs
	m.t0 = time.Now()
}

// stop returns the cost since start, divided over ops.
func (m *meter) stop(ops int) cost {
	dt := time.Since(m.t0)
	runtime.ReadMemStats(&m.ms)
	return cost{
		ns:     float64(dt.Nanoseconds()) / float64(ops),
		allocs: float64(m.ms.Mallocs-m.a0) / float64(ops),
	}
}

// repeat runs pass until probeRepTime has elapsed and returns the cost per
// op over every pass; pass returns its op count.
func (m *meter) repeat(pass func() (int, error)) (cost, error) {
	ops := 0
	m.start()
	for ops == 0 || time.Since(m.t0) < probeRepTime {
		n, err := pass()
		if err != nil {
			return cost{}, err
		}
		ops += n
	}
	return m.stop(ops), nil
}

// medianCost is the element-wise median of repetition costs.
func medianCost(cs []cost) cost {
	ns := make([]float64, len(cs))
	allocs := make([]float64, len(cs))
	for i, c := range cs {
		ns[i], allocs[i] = c.ns, c.allocs
	}
	return cost{ns: median(ns), allocs: median(allocs)}
}

// runProbe runs probeReps repetitions of pass on a probe thread of k and
// returns the median cost per op; finish, if set, then releases any
// helper thread.
func runProbe(k *sim.Kernel, pass func(t *sim.Thread) (int, error), finish func(t *sim.Thread)) (cost, error) {
	var reps []cost
	var err error
	k.Spawn("probe", func(t *sim.Thread) {
		var m meter
		for r := 0; r < probeReps && err == nil; r++ {
			var c cost
			c, err = m.repeat(func() (int, error) { return pass(t) })
			reps = append(reps, c)
		}
		if finish != nil {
			finish(t)
		}
	})
	if kerr := k.Run(); kerr != nil {
		k.Shutdown()
		return cost{}, kerr
	}
	if err != nil {
		return cost{}, err
	}
	return medianCost(reps), nil
}

// probes runs every layer probe for a workload and returns per-layer
// metrics by name.
func probes(p probeSpec, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	set := func(name string, c cost) {
		out[name+"_ns"] = c.ns
		out[name+"_allocs"] = c.allocs
	}
	steps := []struct {
		name string
		run  func() (cost, error)
	}{
		{"sim.probe_handoff", probeHandoff},
		{"sim.probe_sleep", func() (cost, error) { return probeSleep(true) }},
		{"sim.probe_warp", func() (cost, error) { return probeSleep(false) }},
		{"tfio.probe_readfile", func() (cost, error) { return probeReadFile(p, seed) }},
		{"tfdata.probe_sample", func() (cost, error) { return probeTFData(p, seed) }},
		{"vfs.probe_pwrite", func() (cost, error) { return probeWrite(p, seed, false) }},
		{"vfs.probe_fwrite", func() (cost, error) { return probeWrite(p, seed, true) }},
	}
	for _, s := range steps {
		c, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		set(s.name, c)
	}
	l, err := probeLibc(p, seed)
	if err != nil {
		return nil, fmt.Errorf("libc probe: %w", err)
	}
	out["vfs.probe_open_ns"] = l.open
	out["vfs.probe_pread_ns"] = l.pread
	out["vfs.probe_allocs_per_op"] = l.detached.allocs
	out["darshan.probe_wrap_ns"] = l.attached.ns - l.detached.ns
	out["darshan.probe_wrap_allocs"] = l.attached.allocs - l.detached.allocs
	ckpt, err := probeCheckpoint(p, seed)
	if err != nil {
		return nil, fmt.Errorf("checkpoint probe: %w", err)
	}
	out["tfio.probe_ckpt_ms"] = ckpt.ns / 1e6
	return out, nil
}

// probeHandoff ping-pongs a value between two threads over unbuffered
// sim.Chans; one handoff is one send and its receive.
func probeHandoff() (cost, error) {
	k := sim.NewKernel()
	ping, pong := sim.NewChan[int](0), sim.NewChan[int](0)
	k.Spawn("pong", func(t *sim.Thread) {
		for {
			v, ok := ping.Recv(t)
			if !ok {
				return
			}
			pong.Send(t, v)
		}
	})
	return runProbe(k, func(t *sim.Thread) (int, error) {
		for i := 0; i < probeSimOps; i++ {
			ping.Send(t, i)
			pong.Recv(t)
		}
		return 2 * probeSimOps, nil
	}, func(t *sim.Thread) { ping.Close(t) })
}

// probeSleep times Thread.Sleep: parked behind a runnable peer, or as the
// sole thread, where the kernel warps the clock inline.
func probeSleep(withPeer bool) (cost, error) {
	k := sim.NewKernel()
	done := false
	if withPeer {
		k.Spawn("peer", func(t *sim.Thread) {
			for !done {
				t.Sleep(50 * sim.Nanosecond)
			}
		})
	}
	return runProbe(k, func(t *sim.Thread) (int, error) {
		for i := 0; i < probeSimOps; i++ {
			t.Sleep(100 * sim.Nanosecond)
		}
		return probeSimOps, nil
	}, func(*sim.Thread) { done = true })
}

// libcCost is the libc probe's result.
type libcCost struct {
	open, pread        float64 // ns per open (with its close) and per pread, detached
	detached, attached cost    // per op over opens, preads and closes
}

// probeLibc replays open, the whole-file pread loop and close through the
// process's GOT, alternating repetitions with tf-Darshan's wrapper
// detached and attached, so drift affects both sides alike. Metadata is
// dropped before every pass, so every open is cold, as in one epoch.
func probeLibc(p probeSpec, seed int64) (libcCost, error) {
	mach, paths, err := p.probeMachine(seed, probeFiles)
	if err != nil {
		return libcCost{}, err
	}
	w := core.NewWrapper(mach.Proc)
	libc := mach.Env.Libc
	var opens, preads []float64
	var det, att []cost
	mach.K.Spawn("probe", func(t *sim.Thread) {
		var m meter
		for r := 0; r < 2*probeReps && err == nil; r++ {
			attach := r%2 == 1
			if attach {
				err = w.Attach()
			} else if w.Attached() {
				err = w.Detach()
			}
			if err != nil {
				return
			}
			var openNs, preadNs time.Duration
			var nOpen, nPread int
			var c cost
			c, err = m.repeat(func() (int, error) {
				mach.FS.DropNodeState(mach.Node)
				ops := 0
				for _, path := range paths {
					t0 := time.Now()
					fd, err := libc.Open(t, path, vfs.O_RDONLY)
					if err != nil {
						return 0, err
					}
					t1 := time.Now()
					for off := int64(0); ; {
						n, err := libc.PreadDiscard(t, fd, tfio.ReadChunk, off)
						if err != nil {
							return 0, err
						}
						nPread++
						ops++
						if n == 0 {
							break
						}
						off += int64(n)
					}
					t2 := time.Now()
					if err := libc.Close(t, fd); err != nil {
						return 0, err
					}
					openNs += t1.Sub(t0) + time.Since(t2)
					preadNs += t2.Sub(t1)
					nOpen++
					ops += 2
				}
				return ops, nil
			})
			if attach {
				att = append(att, c)
				continue
			}
			det = append(det, c)
			opens = append(opens, float64(openNs)/float64(nOpen))
			preads = append(preads, float64(preadNs)/float64(nPread))
		}
	})
	if kerr := mach.K.Run(); kerr != nil {
		mach.K.Shutdown()
		return libcCost{}, kerr
	}
	if err != nil {
		return libcCost{}, err
	}
	return libcCost{open: median(opens), pread: median(preads), detached: medianCost(det), attached: medianCost(att)}, nil
}

// probeReadFile replays tfio.ReadFile over the population prefix, Darshan
// detached; the cost is per file.
func probeReadFile(p probeSpec, seed int64) (cost, error) {
	mach, paths, err := p.probeMachine(seed, probeFiles)
	if err != nil {
		return cost{}, err
	}
	return runProbe(mach.K, func(t *sim.Thread) (int, error) {
		mach.FS.DropNodeState(mach.Node)
		for _, path := range paths {
			if _, err := tfio.ReadFile(t, mach.Env, path); err != nil {
				return 0, err
			}
		}
		return len(paths), nil
	}, nil)
}

// probeTFData drains a one-map-thread tfdata iterator over the population
// prefix with the workload's capture function; the cost is per sample.
func probeTFData(p probeSpec, seed int64) (cost, error) {
	mach, paths, err := p.probeMachine(seed, probeFiles)
	if err != nil {
		return cost{}, err
	}
	return runProbe(mach.K, func(t *sim.Thread) (int, error) {
		mach.FS.DropNodeState(mach.Node)
		it, err := tfdata.FromFiles(mach.Env, paths).Map(p.mapFn, 1).Batch(8).MakeIterator()
		if err != nil {
			return 0, err
		}
		samples := 0
		for {
			b, ok := it.Next(t)
			if !ok {
				break
			}
			samples += len(b.Samples)
		}
		it.Close(t)
		if samples != len(paths) {
			return 0, fmt.Errorf("%d samples of %d files", samples, len(paths))
		}
		return samples, nil
	}, nil)
}

// probeWrite rewrites the sizes of the population's first files through
// pwrite in tfio's read chunk, or through fwrite in its checkpoint chunk;
// the cost is per write call.
func probeWrite(p probeSpec, seed int64, stdio bool) (cost, error) {
	mach, paths, err := p.probeMachine(seed, probeWriteFiles)
	if err != nil {
		return cost{}, err
	}
	sizes := make([]int64, len(paths))
	for i, path := range paths {
		ino, _ := mach.FS.Lookup(path)
		sizes[i] = ino.Size
	}
	libc := mach.Env.Libc
	buf := make([]byte, tfio.CheckpointChunk)
	return runProbe(mach.K, func(t *sim.Thread) (int, error) {
		writes := 0
		for i, size := range sizes {
			name := fmt.Sprintf("%s/probe-write-%d", platform.KebnekaiseLustre, i)
			if stdio {
				st, err := libc.Fopen(t, name, "w")
				if err != nil {
					return 0, err
				}
				for off := int64(0); off < size; off += tfio.CheckpointChunk {
					if _, err := libc.Fwrite(t, st, buf[:min(tfio.CheckpointChunk, size-off)]); err != nil {
						return 0, err
					}
					writes++
				}
				if err := libc.Fclose(t, st); err != nil {
					return 0, err
				}
				continue
			}
			fd, err := libc.Open(t, name, vfs.O_WRONLY|vfs.O_CREAT|vfs.O_TRUNC)
			if err != nil {
				return 0, err
			}
			for off := int64(0); off < size; off += tfio.ReadChunk {
				if _, err := libc.Pwrite(t, fd, buf[:min(tfio.ReadChunk, size-off)], off); err != nil {
					return 0, err
				}
				writes++
			}
			if err := libc.Close(t, fd); err != nil {
				return 0, err
			}
		}
		return writes, nil
	}, nil)
}

// probeCheckpoint rewrites the workload model's checkpoint through
// tfio.WriteCheckpoint; the cost is per checkpoint.
func probeCheckpoint(p probeSpec, seed int64) (cost, error) {
	mach, _, err := p.probeMachine(seed, 0)
	if err != nil {
		return cost{}, err
	}
	vars := p.model().Vars
	prefix := platform.KebnekaiseLustre + "/probe-ckpt"
	return runProbe(mach.K, func(t *sim.Thread) (int, error) {
		_, err := tfio.WriteCheckpoint(t, mach.Env, prefix, vars)
		return 1, err
	}, nil)
}
