package prefetch

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tf"
	"repro/internal/vfs"
	"repro/internal/workload"
)

const testSeed = 20200812

// ladderFixture builds a single-node FS over a Lustre data mount with
// nFiles equal-size files and returns the cache device to prefetch onto.
func ladderFixture(t *testing.T, nFiles int, fileSize int64) (*sim.Kernel, *vfs.FS, *storage.Flash, []string) {
	t.Helper()
	k := sim.NewKernel()
	fs := vfs.New(vfs.DefaultConfig())
	lustre := storage.NewLustre("lustre", storage.DefaultLustreParams())
	fs.AddMount(&vfs.Mount{Prefix: "/pfs", Dev: lustre, OpenMetaTrips: 1, DirMetaTrips: 1})
	paths := make([]string, nFiles)
	for i := range paths {
		paths[i] = fmt.Sprintf("/pfs/data/f%04d.bin", i)
		if _, err := fs.CreateFile(paths[i], fileSize); err != nil {
			t.Fatal(err)
		}
	}
	cacheDev := storage.NewFlash("nvme-cache", storage.DefaultOptaneParams())
	return k, fs, cacheDev, paths
}

// readWholeFile consumes one file as node 0, the way the training
// pipeline's ReadFile loop does.
func readWholeFile(t *testing.T, th *sim.Thread, fs *vfs.FS, p string, size int64) {
	t.Helper()
	fd, err := fs.Open(th, 0, p, vfs.O_RDONLY)
	if err != nil {
		t.Error(err)
		return
	}
	if _, err := fs.PreadDiscard(th, fd, size, 0); err != nil {
		t.Error(err)
	}
	if err := fs.Close(th, fd); err != nil {
		t.Error(err)
	}
}

// TestScheduleEpochOneIsShardPaths pins the identity that keeps prefetch
// schedules compatible with the plain shard order: one epoch of Schedule
// is exactly distributed.ShardPaths.
func TestScheduleEpochOneIsShardPaths(t *testing.T) {
	paths := make([]string, 40)
	for i := range paths {
		paths[i] = fmt.Sprintf("/pfs/f%02d", i)
	}
	for _, ranks := range []int{1, 4} {
		for r := 0; r < ranks; r++ {
			got := Schedule(paths, testSeed, ranks, r, 1)
			want := distributed.ShardPaths(paths, testSeed, ranks, r)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ranks=%d rank=%d: one-epoch schedule != ShardPaths", ranks, r)
			}
		}
	}
}

// TestScheduleEpochsReshuffle: successive epochs of a one-rank schedule
// visit the same file set in different orders, and multi-rank epochs move
// files between ranks (the overlap peer serving exploits) while each
// epoch's shards still partition the full list.
func TestScheduleEpochsReshuffle(t *testing.T) {
	paths := make([]string, 64)
	for i := range paths {
		paths[i] = fmt.Sprintf("/pfs/f%02d", i)
	}
	set := func(ps []string) map[string]bool {
		m := make(map[string]bool, len(ps))
		for _, p := range ps {
			m[p] = true
		}
		return m
	}
	s := Schedule(paths, testSeed, 1, 0, 2)
	ep1, ep2 := s[:len(paths)], s[len(paths):]
	if !reflect.DeepEqual(set(ep1), set(ep2)) {
		t.Fatal("one-rank epochs cover different file sets")
	}
	if reflect.DeepEqual(ep1, ep2) {
		t.Fatal("epoch 2 repeats epoch 1's order (no reshuffle)")
	}
	// Two ranks: each epoch's shards are disjoint and cover everything,
	// and rank 0's shard changes membership across epochs.
	r0 := Schedule(paths, testSeed, 2, 0, 2)
	r1 := Schedule(paths, testSeed, 2, 1, 2)
	n := len(paths) / 2
	for e := 0; e < 2; e++ {
		s0, s1 := set(r0[e*n:(e+1)*n]), set(r1[e*n:(e+1)*n])
		for p := range s0 {
			if s1[p] {
				t.Fatalf("epoch %d shards overlap on %s", e, p)
			}
		}
		if len(s0)+len(s1) != len(paths) {
			t.Fatalf("epoch %d shards do not cover the file list", e)
		}
	}
	if reflect.DeepEqual(set(r0[:n]), set(r0[n:])) {
		t.Fatal("rank 0's shard membership never changes across epochs")
	}
}

// TestEvictionLadder is the cache-ladder coverage: with a shard set larger
// than the node tier, eviction keeps the cache within bound at every rung,
// and the second-epoch hit rate (retention — epoch 2 is read with no
// prefetcher help, so hits come only from files the bounded cache kept)
// degrades monotonically as the cache shrinks.
func TestEvictionLadder(t *testing.T) {
	const nFiles = 48
	const fileSize = int64(256 << 10)
	epoch2 := func(paths []string) []string {
		return distributed.ShardPaths(paths, testSeed+1, 1, 0)
	}
	rungFiles := []int64{8, 16, 32, 64}
	hits := make([]int64, len(rungFiles))
	for i, rf := range rungFiles {
		capacity := rf * fileSize
		k, fs, cacheDev, paths := ladderFixture(t, nFiles, fileSize)
		// The prefetcher walks epoch 1 only; epoch 2 measures retention.
		p := Start(k, fs, 0, cacheDev, Schedule(paths, testSeed, 1, 0, 1), Config{
			CacheBytes: capacity, Depth: 8,
		})
		var ep2Hits int64
		k.Spawn("consumer", func(th *sim.Thread) {
			for _, f := range Schedule(paths, testSeed, 1, 0, 1) {
				readWholeFile(t, th, fs, f, fileSize)
				// Per-sample compute: the headroom that lets the daemon run
				// ahead of consumption, as training's map+step time does.
				th.Sleep(sim.FromMillis(2))
				if got := p.Cache().Used(); got > capacity {
					t.Errorf("rung %d: cache exceeded bound mid-run: %d > %d", rf, got, capacity)
				}
			}
			afterEp1 := p.Cache().Stats().LocalHits
			for _, f := range epoch2(paths) {
				readWholeFile(t, th, fs, f, fileSize)
			}
			ep2Hits = p.Cache().Stats().LocalHits - afterEp1
			// The daemon's tail fetches may never be consumed again; stop
			// it the way the rank's AfterRank hook does in a real run.
			p.Stop(th)
		})
		if err := k.Run(); err != nil {
			t.Fatalf("rung %d: %v", rf, err)
		}
		if used := p.Cache().Used(); used > capacity {
			t.Fatalf("rung %d: cache over bound at end: %d > %d", rf, used, capacity)
		}
		if int64(nFiles)*fileSize > capacity {
			if p.Cache().Stats().Evictions == 0 {
				t.Fatalf("rung %d: working set exceeds the tier but nothing was evicted", rf)
			}
		} else if p.Cache().Stats().Evictions != 0 {
			t.Fatalf("rung %d: evicted with the whole working set in bound", rf)
		}
		hits[i] = ep2Hits
	}
	for i := 1; i < len(hits); i++ {
		if hits[i] < hits[i-1] {
			t.Fatalf("hit count not monotone in cache size: %v", hits)
		}
	}
	if hits[0] >= hits[len(hits)-1] {
		t.Fatalf("hit rate did not degrade under capacity pressure: %v", hits)
	}
}

// TestStopUnblocksTruncatedConsumer: when the consumer stops early (the
// lockstep truncation case), Stop must wake the parked daemon or the
// kernel deadlocks at job end.
func TestStopUnblocksTruncatedConsumer(t *testing.T) {
	const nFiles = 32
	const fileSize = int64(64 << 10)
	k, fs, cacheDev, paths := ladderFixture(t, nFiles, fileSize)
	sched := Schedule(paths, testSeed, 1, 0, 1)
	p := Start(k, fs, 0, cacheDev, sched, Config{
		CacheBytes: 4 * fileSize, Depth: 2,
	})
	k.Spawn("consumer", func(th *sim.Thread) {
		for _, f := range sched[:4] {
			readWholeFile(t, th, fs, f, fileSize)
		}
		p.Stop(th)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("kernel did not drain after Stop: %v", err)
	}
}

// TestRunClusterEndToEnd drives the full wrapper on a small cluster: per-
// epoch schedules, one daemon per node, peer serving on — and pins that
// the run completes with overwhelmingly cache-served reads and that two
// identical runs are deterministic.
func TestRunClusterEndToEnd(t *testing.T) {
	_, res, reports := runTwoRankCluster(t, nil)
	if len(reports) != 2 {
		t.Fatalf("got %d node reports, want 2", len(reports))
	}
	for _, r := range reports {
		served := r.Cache.LocalHits + r.Cache.PeerHits
		if served == 0 {
			t.Fatalf("node %d: no cache-served reads at all: %+v", r.Node, r.Cache)
		}
		if r.Prefetch.Fetched == 0 {
			t.Fatalf("node %d: prefetcher fetched nothing", r.Node)
		}
	}
	_, res2, reports2 := runTwoRankCluster(t, nil)
	if res.WallSeconds != res2.WallSeconds {
		t.Fatalf("wall time not deterministic: %v vs %v", res.WallSeconds, res2.WallSeconds)
	}
	if !reflect.DeepEqual(reports, reports2) {
		t.Fatal("node reports not deterministic across identical runs")
	}
}

// TestRunClusterFetchFaultsDegradeToColdReads: a transient fault on a
// prefetch fetch abandons that schedule entry (exactly one give-up per
// injected fetch fault, no reissue), and the consumer — retrying its own
// flaky reads — still reads every byte of the fault-free run.
func TestRunClusterFetchFaultsDegradeToColdReads(t *testing.T) {
	_, clean, _ := runTwoRankCluster(t, nil)
	c, res, reports := runTwoRankCluster(t, func(c *platform.Cluster, opts *distributed.Options) {
		c.FS.InjectFaults(vfs.FaultPlan{Seed: 9, ReadErrNth: 5})
		opts.Retry = tf.RetryPolicy{
			MaxRetries: 4, BaseBackoff: 2 * sim.Millisecond, MaxBackoff: 50 * sim.Millisecond, Seed: 9,
		}
	})
	var giveups int64
	for _, r := range reports {
		giveups += r.Prefetch.FetchGiveups
	}
	faults := c.FS.TotalFaultStats().FetchFaults
	if faults == 0 {
		t.Fatal("fault plan injected no fetch faults")
	}
	if giveups != faults {
		t.Fatalf("fetch give-ups %d, injected fetch faults %d", giveups, faults)
	}
	want := clean.Merged.TotalPosix(darshan.POSIX_BYTES_READ)
	if got := res.Merged.TotalPosix(darshan.POSIX_BYTES_READ); got != want {
		t.Fatalf("merged POSIX_BYTES_READ %d under fetch faults, %d fault-free", got, want)
	}
}

// runTwoRankCluster runs a two-rank, two-epoch AlexNet job with a
// peer-serving prefetcher on each node. arm, when non-nil, adjusts the
// cluster and options before the run.
func runTwoRankCluster(t *testing.T, arm func(*platform.Cluster, *distributed.Options)) (*platform.Cluster, *distributed.Result, []NodeReport) {
	t.Helper()
	const ranks, files = 2, 48
	c := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true})
	spec := workload.DatasetSpec{
		Name: "pf", Dir: platform.KebnekaiseLustre + "/pf",
		NumFiles: files, TotalBytes: int64(files) * 96 * 1024, Seed: testSeed,
	}
	d, err := workload.Generate(c.FS, spec, workload.ImageNetSizes(spec))
	if err != nil {
		t.Fatal(err)
	}
	opts := distributed.Options{
		Threads: 4, Batch: 8, Prefetch: 4, Shuffle: testSeed,
		Model: workload.AlexNet, MapFn: workload.ImageNetMap,
	}
	if arm != nil {
		arm(c, &opts)
	}
	res, reports, err := RunCluster(c, d.Paths, opts, Config{
		CacheBytes:  64 << 20,
		PeerServing: true,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c, res, reports
}
