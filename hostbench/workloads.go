package main

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/dataservice"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tf"
	"repro/internal/tf/keras"
	"repro/internal/tf/profiler"
	"repro/internal/tf/tfdata"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Scenario sizes, chosen so one run takes a fraction of a second and an
// invocation measures tens of runs. Each workload is a closed batch job:
// one run at a time, the next set up only after the previous one has
// finished.
const (
	// imagenet-1node: 10,240 paper-shaped ~88 KB files, 40 batches of 256.
	imagenetScale   = 0.08
	imagenetThreads = 28
	imagenetBatch   = 256

	// prefetch-4rank: 7,680 files of the same shape over 4 ranks, 2 epochs.
	prefetchRanks  = 4
	prefetchScale  = 0.06
	prefetchEpochs = 2

	// recovery-ckpt-faults: 4 ranks over 5,434 MB-sized malware files.
	recoveryRanks = 4
	recoveryScale = 0.5
	recoveryBatch = 8

	// dataservice-32job: 32 jobs over one 1,024-file corpus on 4 workers.
	dataserviceFleet = 4
	dataserviceJobs  = 32
	dataserviceScale = 0.08
	dataserviceBatch = 8
)

// workloadDef is one benchmark workload: how to set it up from a seed,
// and what its layer probes replay.
type workloadDef struct {
	name string
	// setup boots the platform and generates the population; the
	// returned instance runs exactly once.
	setup func(seed int64, tr *tracer) (*instance, error)
	probe probeSpec
}

// instance is one set-up workload, ready to run.
type instance struct {
	files int
	run   func(tr *tracer) (*outcome, error)
}

// outcome is everything one run produced that the checks and the
// per-layer report read.
type outcome struct {
	virtualNs int64
	// snaps holds one Darshan record set per rank, worker or node.
	snaps []*darshan.Snapshot
	// merged is the cross-rank reduction; nil on a single node.
	merged *darshan.MergedLog
	// log is the run's encoded Darshan log, once encoded.
	log []byte
	// capture counts what the input pipeline's capture function returned.
	capture captureCounter
	// counts are the run's exact simulated counts, by metric name.
	counts map[string]float64
	// space and sessionStart are the run's profiler session, if any.
	space        *profiler.XSpace
	sessionStart int64
	sizeOf       core.SizeOfFunc
	// invariants are the workload's own output checks.
	invariants func() error
}

var workloads = []workloadDef{
	{
		name:  "imagenet-1node",
		setup: setupImageNet,
		probe: probeSpec{build: workload.BuildImageNet, spec: imagenetSpec, mapFn: workload.ImageNetMap, model: workload.AlexNet},
	},
	{
		name:  "prefetch-4rank",
		setup: setupPrefetch,
		probe: probeSpec{build: workload.BuildImageNet, spec: prefetchSpec, mapFn: workload.ImageNetMap, model: workload.AlexNet},
	},
	{
		name:  "recovery-ckpt-faults",
		setup: recoverySetup(false),
		probe: probeSpec{build: workload.BuildMalware, spec: recoverySpec, mapFn: workload.MalwareMap, model: workload.MalwareCNN},
	},
	{
		// Not in BENCHMARK.json: it fails the bytes check until the
		// program's rank-death export is fixed (README.md, Checks).
		name:  "recovery-elastic-death",
		setup: recoverySetup(true),
		probe: probeSpec{build: workload.BuildMalware, spec: recoverySpec, mapFn: workload.MalwareMap, model: workload.MalwareCNN},
	},
	{
		name:  "dataservice-32job",
		setup: setupDataService,
		probe: probeSpec{build: workload.BuildStreamImageNet, spec: dataserviceSpec, mapFn: workload.ImageNetMap, model: workload.AlexNet},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// derive mixes a salt into the workload seed, so population, shuffle and
// fault seeds differ from one another but all follow --seed.
func derive(seed int64, salt int64) int64 { return seed*1_000_003 + salt }

const (
	saltPopulation = 1
	saltShuffle    = 2
	saltFaults     = 3
)

func imagenetSpec(seed int64) workload.DatasetSpec {
	s := workload.ImageNetSpec(platform.KebnekaiseLustre+"/imagenet", imagenetScale)
	s.Seed = derive(seed, saltPopulation)
	return s
}

func prefetchSpec(seed int64) workload.DatasetSpec {
	s := workload.ImageNetSpec(platform.KebnekaiseLustre+"/imagenet", prefetchScale)
	s.Seed = derive(seed, saltPopulation)
	return s
}

func recoverySpec(seed int64) workload.DatasetSpec {
	s := workload.MalwareSpec(platform.KebnekaiseLustre+"/malware", recoveryScale)
	s.Seed = derive(seed, saltPopulation)
	return s
}

func dataserviceSpec(seed int64) workload.DatasetSpec {
	s := workload.StreamImageNetSpec(platform.KebnekaiseLustre+"/dsvc", dataserviceScale)
	s.Seed = derive(seed, saltPopulation)
	return s
}

// captureCounter counts the files and bytes a capture function returned:
// what the input pipeline actually received.
type captureCounter struct{ files, bytes int64 }

func (c *captureCounter) wrap(fn tfdata.MapFunc) tfdata.MapFunc {
	return func(t *sim.Thread, env *tf.Env, path string) (tfdata.Sample, error) {
		s, err := fn(t, env, path)
		if err == nil {
			c.files++
			c.bytes += s.Bytes
		}
		return s, err
	}
}

// generate times population generation on fs.
func generate(tr *tracer, fs *vfs.FS, build func(*vfs.FS, workload.DatasetSpec) (*workload.Dataset, error), spec workload.DatasetSpec) (*workload.Dataset, error) {
	var d *workload.Dataset
	err := tr.timed("workload.generate", func() (err error) {
		d, err = build(fs, spec)
		return err
	})
	return d, err
}

// sizeOfFS resolves file sizes through the VFS namespace.
func sizeOfFS(fs *vfs.FS) core.SizeOfFunc {
	return func(p string) (int64, bool) {
		ino, ok := fs.Lookup(p)
		if !ok {
			return 0, false
		}
		return ino.Size, true
	}
}

// deviceCounters takes the storage counters of a device set before a run,
// so the run's own traffic can be reported as a delta. Devices that
// appear only after the run (a rejoined node's NVMe) start from zero.
type deviceCounters map[storage.Device]storage.Counters

func baseline(devs []storage.Device) deviceCounters {
	b := deviceCounters{}
	for _, d := range devs {
		b[d] = d.Counters()
	}
	return b
}

func (b deviceCounters) delta(devs []storage.Device) storage.Counters {
	var sum storage.Counters
	seen := map[storage.Device]bool{}
	add := func(d storage.Device) {
		if seen[d] {
			return
		}
		seen[d] = true
		c := d.Counters().Sub(b[d])
		sum.ReadOps += c.ReadOps
		sum.WriteOps += c.WriteOps
		sum.MetaOps += c.MetaOps
		sum.BytesRead += c.BytesRead
		sum.BytesWritten += c.BytesWritten
		sum.BusyTime += c.BusyTime
	}
	for d := range b {
		add(d)
	}
	for _, d := range devs {
		add(d)
	}
	return sum
}

func clusterDevices(c *platform.Cluster) []storage.Device {
	devs := []storage.Device{c.Lustre}
	for _, n := range c.Nodes {
		devs = append(devs, n.Devices()...)
	}
	return devs
}

// setStorage records a run's device traffic.
func setStorage(counts map[string]float64, c storage.Counters) {
	counts["storage.read_ops"] = float64(c.ReadOps)
	counts["storage.write_ops"] = float64(c.WriteOps)
	counts["storage.meta_ops"] = float64(c.MetaOps)
	counts["storage.read_mb"] = float64(c.BytesRead) / 1e6
	counts["storage.write_mb"] = float64(c.BytesWritten) / 1e6
	counts["storage.busy_s"] = sim.Seconds(c.BusyTime)
}

// setHistories records the keras and distributed counts of a cluster run.
func setHistories(counts map[string]float64, res *distributed.Result) {
	var steps, samples int64
	var wait, dur, sync int64
	var ckpt, restore int64
	for i := range res.PerRank {
		r := &res.PerRank[i]
		if h := r.History; h != nil {
			steps += int64(h.StepsRun)
			samples += h.SamplesSeen
			for _, w := range h.StepWaitNs {
				wait += w
			}
			dur += h.Duration()
			sync += h.SyncNs()
		}
		ckpt += r.CkptBytes()
		restore += r.RestoreBytes
	}
	counts["keras.steps"] = float64(steps)
	counts["tfdata.samples"] = float64(samples)
	counts["tfdata.batches"] = float64(steps)
	if dur > 0 {
		counts["keras.input_wait_frac"] = float64(wait) / float64(dur)
	}
	counts["distributed.sync_s"] = sim.Seconds(sync)
	counts["distributed.failures"] = float64(len(res.Failures))
	counts["distributed.ckpt_mb"] = float64(ckpt) / 1e6
	counts["distributed.restore_mb"] = float64(restore) / 1e6
}

// setFaults records retry and injected-fault counts.
func setFaults(counts map[string]float64, f darshan.FaultCounters, fs *vfs.FS) {
	counts["tf.retries"] = float64(f.Retries)
	counts["tf.giveups"] = float64(f.Giveups)
	counts["tf.backoff_s"] = sim.Seconds(f.BackoffNs)
	s := fs.TotalFaultStats()
	counts["vfs.faults_injected"] = float64(s.ReadFaults + s.FetchFaults + s.PeerServeFaults)
	counts["vfs.fault_delay_s"] = sim.Seconds(s.BrownoutNs + s.DegradedNs)
}

// setCache records node-cache traffic summed over nodes.
func setCache(counts map[string]float64, stats []vfs.NodeCacheStats) {
	var s vfs.NodeCacheStats
	for _, c := range stats {
		s.LocalHits += c.LocalHits
		s.PeerHits += c.PeerHits
		s.PFSReads += c.PFSReads
		s.Evictions += c.Evictions
	}
	counts["vfs.cache_local_hits"] = float64(s.LocalHits)
	counts["vfs.cache_peer_hits"] = float64(s.PeerHits)
	counts["vfs.cache_pfs_reads"] = float64(s.PFSReads)
	counts["vfs.cache_evictions"] = float64(s.Evictions)
	if all := s.LocalHits + s.PeerHits + s.PFSReads; all > 0 {
		counts["vfs.cache_hit_ratio"] = float64(s.LocalHits+s.PeerHits) / float64(all)
	}
}

// setupImageNet boots one Kebnekaise node with tf-Darshan registered in
// its profiler, over the paper-shaped ImageNet population.
func setupImageNet(seed int64, tr *tracer) (*instance, error) {
	var m *platform.Machine
	var h *core.Handle
	_ = tr.timed("platform.boot", func() error {
		m = platform.NewKebnekaise(platform.Options{})
		cfg := core.DefaultTracerConfig()
		cfg.SizeOf = sizeOfFS(m.FS)
		h = core.Register(m.Env, cfg)
		return nil
	})
	d, err := generate(tr, m.FS, workload.BuildImageNet, imagenetSpec(seed))
	if err != nil {
		return nil, err
	}
	steps := len(d.Paths) / imagenetBatch
	shuffle := derive(seed, saltShuffle)
	run := func(tr *tracer) (*outcome, error) {
		out := &outcome{counts: map[string]float64{}, sizeOf: sizeOfFS(m.FS)}
		tb := keras.NewTensorBoard(1, steps)
		var it *tfdata.Iterator
		var hist *keras.History
		var runErr error
		m.K.Spawn("trainer", func(t *sim.Thread) {
			ds := tfdata.FromFiles(m.Env, d.Paths).Shuffle(shuffle).
				Map(out.capture.wrap(workload.ImageNetMap), imagenetThreads).
				Batch(imagenetBatch).Prefetch(10)
			it, runErr = ds.MakeIterator()
			if runErr != nil {
				return
			}
			hist, runErr = workload.AlexNet().Fit(t, m.Env, it, keras.FitOptions{
				Steps: steps, Callbacks: []keras.Callback{tb},
			})
		})
		devs := baseline(m.Devices())
		if err := tr.timed("sim.run", m.K.Run); err != nil {
			m.K.Shutdown()
			return nil, err
		}
		if runErr != nil {
			return nil, runErr
		}
		if tb.Err != nil {
			return nil, tb.Err
		}
		if h.Last == nil || tb.Session == nil {
			return nil, fmt.Errorf("imagenet-1node: no tf-Darshan session collected")
		}
		out.virtualNs = m.K.Now()
		out.space, out.sessionStart = tb.Space, tb.Session.StartNs
		snap := m.Darshan.Export(m.K.Now())
		out.snaps = []*darshan.Snapshot{snap}

		// Post-run: the snapshot through core analysis and export, and
		// through the log encoder and decoder.
		var analysis *core.SessionStats
		_ = tr.timed("post.core.analyze", func() error {
			analysis = core.AnalyzeSnapshot(snap, out.sizeOf)
			return nil
		})
		if err := tr.timed("post.core.export", func() error {
			_, err := core.Export(out.space, analysis, out.sessionStart)
			return err
		}); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := tr.timed("post.darshan.encode", func() error { return darshan.WriteSnapshotLog(&buf, snap) }); err != nil {
			return nil, err
		}
		out.log = buf.Bytes()
		if err := tr.timed("post.darshan.decode", func() error {
			_, err := darshan.ReadLog(bytes.NewReader(out.log))
			return err
		}); err != nil {
			return nil, err
		}

		c := out.counts
		setStorage(c, devs.delta(m.Devices()))
		c["tfdata.samples"] = float64(it.SamplesOut)
		c["tfdata.batches"] = float64(it.BatchesOut)
		c["keras.steps"] = float64(hist.StepsRun)
		c["keras.input_wait_frac"] = hist.InputBoundFraction()
		setFaults(c, darshan.FaultCounters{
			Faults: m.Env.RetryStats.Faults, Retries: m.Env.RetryStats.Retries,
			Giveups: m.Env.RetryStats.Giveups, BackoffNs: m.Env.RetryStats.BackoffNs,
		}, m.FS)
		out.invariants = func() error {
			if got, want := it.SamplesOut, int64(steps*imagenetBatch); got != want {
				return fmt.Errorf("imagenet-1node: %d samples delivered, want %d", got, want)
			}
			return nil
		}
		return out, nil
	}
	return &instance{files: len(d.Paths), run: run}, nil
}

// shardBytes returns the largest per-rank epoch shard in bytes.
func shardBytes(d *workload.Dataset, shuffle int64, ranks int) int64 {
	size := make(map[string]int64, len(d.Paths))
	for i, p := range d.Paths {
		size[p] = d.Sizes[i]
	}
	var most int64
	for r := 0; r < ranks; r++ {
		var b int64
		for _, p := range distributed.ShardPaths(d.Paths, shuffle, ranks, r) {
			b += size[p]
		}
		most = max(most, b)
	}
	return most
}

// setupPrefetch boots a 4-rank cluster whose nodes each get an NVMe cache
// of half the largest epoch shard.
func setupPrefetch(seed int64, tr *tracer) (*instance, error) {
	var c *platform.Cluster
	_ = tr.timed("platform.boot", func() error {
		c = platform.NewKebnekaiseCluster(prefetchRanks, platform.Options{PreloadDarshan: true})
		return nil
	})
	d, err := generate(tr, c.FS, workload.BuildImageNet, prefetchSpec(seed))
	if err != nil {
		return nil, err
	}
	shuffle := derive(seed, saltShuffle)
	cacheBytes := shardBytes(d, shuffle, prefetchRanks) / 2
	run := func(tr *tracer) (*outcome, error) {
		out := &outcome{counts: map[string]float64{}, sizeOf: sizeOfFS(c.FS)}
		opts := distributed.Options{
			Threads: 4, Batch: 32, Prefetch: 10, Shuffle: shuffle,
			Model: workload.AlexNet, MapFn: out.capture.wrap(workload.ImageNetMap),
		}
		cfg := prefetch.Config{Depth: 64, Fetchers: 4, CacheBytes: cacheBytes, PeerServing: true}
		devs := baseline(clusterDevices(c))
		var res *distributed.Result
		var reports []prefetch.NodeReport
		if err := tr.timed("sim.run", func() (err error) {
			res, reports, err = prefetch.RunCluster(c, d.Paths, opts, cfg, prefetchEpochs)
			return err
		}); err != nil {
			return nil, err
		}
		out.virtualNs = c.K.Now()
		out.merged = res.Merged
		for i := range res.PerRank {
			out.snaps = append(out.snaps, res.PerRank[i].Snapshot)
		}
		var buf bytes.Buffer
		if err := tr.timed("post.darshan.encode", func() error { return darshan.WriteMergedLog(&buf, res.Merged) }); err != nil {
			return nil, err
		}
		out.log = buf.Bytes()

		cnt := out.counts
		setStorage(cnt, devs.delta(clusterDevices(c)))
		setHistories(cnt, res)
		setFaults(cnt, res.Merged.Faults, c.FS)
		stats := make([]vfs.NodeCacheStats, len(reports))
		var fetched, refused int64
		for i, r := range reports {
			stats[i] = r.Cache
			fetched += r.Prefetch.Fetched
			refused += r.Prefetch.Refused
		}
		setCache(cnt, stats)
		cnt["prefetch.fetched"] = float64(fetched)
		cnt["prefetch.refused"] = float64(refused)
		if fetched > 0 {
			cnt["prefetch.useful_ratio"] = cnt["vfs.cache_local_hits"] / float64(fetched)
		}
		out.invariants = func() error { return perRankSumsMatch(res) }
		return out, nil
	}
	return &instance{files: len(d.Paths), run: run}, nil
}

// perRankSumsMatch checks the merge invariant: merged bytes read equal
// the per-rank sum.
func perRankSumsMatch(res *distributed.Result) error {
	var sum int64
	for i := range res.PerRank {
		sum += res.PerRank[i].Snapshot.TotalPosix(darshan.POSIX_BYTES_READ)
	}
	if got := res.Merged.TotalPosix(darshan.POSIX_BYTES_READ); got != sum {
		return fmt.Errorf("merged POSIX_BYTES_READ %d, per-rank sum %d", got, sum)
	}
	return nil
}

// recoverySetup returns the set-up of a 4-rank cluster with STDIO DXT
// tracing over the malware population and a flaky-read fault plan. With
// death, rank 1 dies at mid-epoch and is recovered elastically.
func recoverySetup(death bool) func(seed int64, tr *tracer) (*instance, error) {
	return func(seed int64, tr *tracer) (*instance, error) { return setupRecovery(seed, tr, death) }
}

func setupRecovery(seed int64, tr *tracer, death bool) (*instance, error) {
	var c *platform.Cluster
	_ = tr.timed("platform.boot", func() error {
		cfg := darshan.DefaultConfig()
		cfg.DXTStdio = true
		c = platform.NewKebnekaiseCluster(recoveryRanks, platform.Options{PreloadDarshan: true, DarshanConfig: &cfg})
		return nil
	})
	d, err := generate(tr, c.FS, workload.BuildMalware, recoverySpec(seed))
	if err != nil {
		return nil, err
	}
	c.FS.InjectFaults(vfs.FaultPlan{Seed: derive(seed, saltFaults), ReadErrNth: 97})
	shuffle := derive(seed, saltShuffle)
	steps := -1
	for r := 0; r < recoveryRanks; r++ {
		s := len(distributed.ShardPaths(d.Paths, shuffle, recoveryRanks, r)) / recoveryBatch
		if steps < 0 || s < steps {
			steps = s
		}
	}
	if steps < 8 {
		return nil, fmt.Errorf("%d lockstep steps is too short to fail mid-epoch", steps)
	}
	run := func(tr *tracer) (*outcome, error) {
		out := &outcome{counts: map[string]float64{}, sizeOf: sizeOfFS(c.FS)}
		opts := distributed.Options{
			Threads: 4, Batch: recoveryBatch, Prefetch: 4, Shuffle: shuffle,
			Model: workload.MalwareCNN, MapFn: out.capture.wrap(workload.MalwareMap),
			Checkpoint: distributed.CheckpointPolicy{
				Pattern: distributed.CkptAllRanks, EverySteps: steps / 4,
				Dir: platform.KebnekaiseLustre + "/ckpt",
			},
			Retry: tf.RetryPolicy{
				MaxRetries: 4, BaseBackoff: 2 * sim.Millisecond, MaxBackoff: 50 * sim.Millisecond,
				OpTimeout: sim.Second, Seed: derive(seed, saltFaults),
			},
		}
		if death {
			opts.Failures = []distributed.FailureEvent{{Rank: 1, Step: steps / 2, RebootDelay: 2 * sim.Second}}
			opts.Elastic = true
		}
		devs := baseline(clusterDevices(c))
		var res *distributed.Result
		if err := tr.timed("sim.run", func() (err error) {
			res, err = distributed.Run(c, d.Paths, opts)
			return err
		}); err != nil {
			return nil, err
		}
		out.virtualNs = c.K.Now()
		out.merged = res.Merged
		for i := range res.PerRank {
			out.snaps = append(out.snaps, res.PerRank[i].Snapshot)
		}
		cnt := out.counts
		setStorage(cnt, devs.delta(clusterDevices(c)))
		setHistories(cnt, res)
		setFaults(cnt, res.Merged.Faults, c.FS)
		out.invariants = func() error {
			if death && (len(res.Failures) != 1 || !res.Failures[0].Elastic) {
				return fmt.Errorf("want one elastic recovery, got %+v", res.Failures)
			}
			if !death && len(res.Failures) != 0 {
				return fmt.Errorf("want no failure, got %+v", res.Failures)
			}
			if f := res.Merged.Faults; f.Retries != f.Faults-f.Giveups {
				return fmt.Errorf("retries %d != faults %d - giveups %d", f.Retries, f.Faults, f.Giveups)
			}
			return perRankSumsMatch(res)
		}
		return out, nil
	}
	return &instance{files: len(d.Paths), run: run}, nil
}

// setupDataService boots the worker fleet over the shared corpus.
func setupDataService(seed int64, tr *tracer) (*instance, error) {
	var c *platform.Cluster
	_ = tr.timed("platform.boot", func() error {
		c = platform.NewKebnekaiseCluster(dataserviceFleet, platform.Options{PreloadDarshan: true})
		return nil
	})
	d, err := generate(tr, c.FS, workload.BuildStreamImageNet, dataserviceSpec(seed))
	if err != nil {
		return nil, err
	}
	shuffle := derive(seed, saltShuffle)
	run := func(tr *tracer) (*outcome, error) {
		out := &outcome{counts: map[string]float64{}, sizeOf: sizeOfFS(c.FS)}
		jobs := make([]dataservice.JobSpec, dataserviceJobs)
		for i := range jobs {
			jobs[i] = dataservice.JobSpec{
				Name: fmt.Sprintf("j%03d", i), Paths: d.Paths,
				Shuffle: shuffle + int64(i), Batch: dataserviceBatch,
			}
		}
		cfg := dataservice.Config{
			MapFn: out.capture.wrap(workload.ImageNetMap), Threads: 2,
			CacheBytes: 2 * d.Total(), PeerServing: true,
		}
		devs := baseline(clusterDevices(c))
		var res *dataservice.Result
		if err := tr.timed("sim.run", func() (err error) {
			res, err = dataservice.Run(c, jobs, cfg)
			return err
		}); err != nil {
			return nil, err
		}
		out.virtualNs = c.K.Now()
		out.merged = res.Merged
		out.snaps = res.PerWorker

		cnt := out.counts
		setStorage(cnt, devs.delta(clusterDevices(c)))
		var samples, batches int64
		for _, j := range res.Jobs {
			samples += j.Samples
			batches += j.Batches
		}
		cnt["tfdata.samples"] = float64(samples)
		cnt["tfdata.batches"] = float64(batches)
		setFaults(cnt, res.Merged.Faults, c.FS)
		setCache(cnt, res.CacheStats)
		cnt["dataservice.leases"] = float64(res.Dispatcher.Leases)
		if res.WallSeconds > 0 {
			cnt["dataservice.dispatcher_busy_frac"] = sim.Seconds(res.Dispatcher.BusyNs) / res.WallSeconds
		}
		if res.PFSBytesRead > 0 {
			cnt["dataservice.dedup_ratio"] = float64(res.TotalColdBytes()) / float64(res.PFSBytesRead)
		}
		cnt["dataservice.pfs_mb"] = float64(res.PFSBytesRead) / 1e6
		out.invariants = func() error {
			for _, j := range res.Jobs {
				if j.Batches != j.ExpectedBatches || j.Bytes != j.ColdBytes {
					return fmt.Errorf("dataservice-32job: %s delivered %d/%d batches, %d/%d bytes",
						j.Name, j.Batches, j.ExpectedBatches, j.Bytes, j.ColdBytes)
				}
			}
			return nil
		}
		return out, nil
	}
	return &instance{files: len(d.Paths), run: run}, nil
}
