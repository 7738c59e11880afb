package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/prefetch"
)

// This file is the clairvoyant prefetching experiment: the online
// counterpart of the tune experiment's offline staging plans. Per rank
// count it runs the same two-epoch, per-epoch-reshuffled training job four
// ways — cold on shared Lustre, with the offline per-rank staging plan
// (core.AdviseClusterStaging, the PR 5 baseline) applied between runs, and
// with the per-node prefetch daemons (internal/prefetch) filling a bounded
// node NVMe cache ahead of the consumer, without and with peer-cache
// serving — across a ladder of cache capacities expressed as fractions of
// the largest per-rank epoch shard. On the capacity-constrained rungs the
// static plan cannot fit the shard and falls back to cold per-file MDS
// lookups for the remainder, while the prefetcher streams the whole shard
// through the bounded cache with statahead-batched metadata; the
// experiment verifies prefetching beats the static plan there, and beats
// the cold baseline on every rung, rather than just reporting the numbers.

// prefetchEpochs is the schedule length: two epochs, so per-epoch
// reshuffling moves shard membership between ranks (what peer-cache
// serving exploits) and retention across the epoch boundary matters.
const prefetchEpochs = 2

// prefetchCapacityLadder is the cache-size ladder in fractions of the
// largest per-rank epoch shard: two capacity-constrained rungs and one
// where the whole shard fits.
var prefetchCapacityLadder = []float64{0.25, 0.5, 1.5}

// PrefetchRung is one cache capacity of a rank count's ladder.
type PrefetchRung struct {
	// Frac is the capacity as a fraction of the largest per-rank epoch
	// shard; CacheBytes is the resolved per-node capacity.
	Frac       float64
	CacheBytes int64
	// Constrained reports CacheBytes < the shard working set — the rungs
	// the offline plan cannot fully stage.
	Constrained bool
	// StagedEpochSec is the epoch time with the offline staging plan
	// (capped at this rung's capacity) applied between runs.
	StagedEpochSec float64
	// NoPeerEpochSec/PeerEpochSec are the prefetched epoch times without
	// and with peer-cache serving.
	NoPeerEpochSec float64
	PeerEpochSec   float64
	// LocalRate/PeerRate/PFSRate break the peer-serving run's data reads
	// down by where they were served, summed across nodes.
	LocalRate float64
	PeerRate  float64
	PFSRate   float64
	// Evictions sums the peer-serving run's cache evictions across nodes.
	Evictions int64
}

// SpeedupVsStagingX returns staged/prefetched epoch time at this rung.
func (r *PrefetchRung) SpeedupVsStagingX() float64 { return ratio(r.StagedEpochSec, r.PeerEpochSec) }

// PrefetchRow is one rank count of the prefetch experiment.
type PrefetchRow struct {
	Ranks int
	// ColdEpochSec is the shared-Lustre baseline epoch time with no cache
	// tier at all.
	ColdEpochSec float64
	Rungs        []PrefetchRung
}

// PrefetchResult is the clairvoyant prefetching experiment.
type PrefetchResult struct {
	Rows []PrefetchRow
}

var prefetchColumns = columns{
	{"ranks", 5, "%d"}, {"cap", 8, "%.0f%%"}, {"cache MB", 9, "%.1f"}, {"cold(s)", 8, "%.2f"},
	{"staged(s)", 9, "%.2f"}, {"nopeer(s)", 9, "%.2f"}, {"peer(s)", 8, "%.2f"}, {"local%", 7, "%.1f%%"},
	{"peer%", 6, "%.1f%%"}, {"pfs%", 6, "%.1f%%"}, {"evict", 8, "%d"},
}

// Render implements Result.
func (r *PrefetchResult) Render() string {
	var b strings.Builder
	b.WriteString("Clairvoyant per-epoch prefetching over node NVMe caches vs cold Lustre and offline staging\n")
	b.WriteString(prefetchColumns.header())
	for _, row := range r.Rows {
		for _, g := range row.Rungs {
			b.WriteString(prefetchColumns.row(row.Ranks, g.Frac*100, float64(g.CacheBytes)/1e6,
				row.ColdEpochSec, g.StagedEpochSec, g.NoPeerEpochSec, g.PeerEpochSec,
				g.LocalRate*100, g.PeerRate*100, g.PFSRate*100, g.Evictions))
		}
	}
	return b.String()
}

// Metrics implements Result.
func (r *PrefetchResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		rp := fmt.Sprintf("ranks%d_", row.Ranks)
		out[rp+"cold_epoch_s"] = row.ColdEpochSec
		for _, g := range row.Rungs {
			p := fmt.Sprintf("%scap%03d_", rp, int(g.Frac*100))
			out[p+"staged_epoch_s"] = g.StagedEpochSec
			out[p+"nopeer_epoch_s"] = g.NoPeerEpochSec
			out[p+"peer_epoch_s"] = g.PeerEpochSec
			out[p+"local_hit_rate"] = g.LocalRate
			out[p+"peer_hit_rate"] = g.PeerRate
			out[p+"pfs_rate"] = g.PFSRate
			out[p+"evictions"] = float64(g.Evictions)
			out[p+"speedup_vs_staging_x"] = g.SpeedupVsStagingX()
			if g.PeerEpochSec > 0 {
				out[p+"speedup_vs_cold_x"] = row.ColdEpochSec / g.PeerEpochSec
			}
		}
	}
	// Headline metrics for the benchmark snapshots: the most
	// capacity-constrained rung at the largest rank count.
	last := r.Rows[len(r.Rows)-1]
	if len(last.Rungs) > 0 {
		g := last.Rungs[0]
		out["prefetch_speedup_vs_staging_x"] = g.SpeedupVsStagingX()
		out["prefetch_local_hit_rate"] = g.LocalRate
		if g.PeerEpochSec > 0 {
			out["prefetch_speedup_vs_cold_x"] = last.ColdEpochSec / g.PeerEpochSec
		}
	}
	return out
}

// prefetchDepth/prefetchFetchers shape the per-node daemons: a window of
// two batches so hits survive the consumer's batch bursts, fetched by as
// many workers as the consumer has reader threads (the workers skip the
// map/step compute, which is exactly the headroom that lets them lead).
const (
	prefetchDepth    = 64
	prefetchFetchers = 4
)

// capStagingAdvice truncates a rank's staging plan to a rung's capacity,
// smallest files first — the most files that fit, i.e. the metadata-bound
// objective under the tighter quota. The advisor itself only scans size
// thresholds, so under a quota below its smallest threshold bucket it
// would stage nothing; the truncation gives the offline baseline its best
// feasible plan at every rung.
func capStagingAdvice(adv *core.StagingAdvice, capacity int64, sizeOf func(string) (int64, bool)) *core.StagingAdvice {
	if adv == nil || adv.Bytes <= capacity {
		return adv
	}
	files := append([]string(nil), adv.Files...)
	sort.SliceStable(files, func(i, j int) bool {
		si, _ := sizeOf(files[i])
		sj, _ := sizeOf(files[j])
		if si != sj {
			return si < sj
		}
		return files[i] < files[j]
	})
	capped := &core.StagingAdvice{
		Threshold:  adv.Threshold,
		TotalFiles: adv.TotalFiles,
		TotalBytes: adv.TotalBytes,
	}
	for _, p := range files {
		sz, ok := sizeOf(p)
		if !ok {
			continue
		}
		if capped.Bytes+sz > capacity {
			break
		}
		capped.Files = append(capped.Files, p)
		capped.FileCount++
		capped.Bytes += sz
	}
	sort.Strings(capped.Files)
	return capped
}

// runPrefetchPoint executes one rank count: the cold profile pass (staging
// plans come from disjoint single-epoch shards, so the merged-log
// shared-record exclusion does not gut them), the cold baseline, and per
// ladder rung the staged baseline plus both prefetched runs.
func runPrefetchPoint(c Config, ranks int) (PrefetchRow, error) {
	// Profile pass: one cold epoch under plain sharding. Its per-rank
	// snapshots feed the staging advisor, its cluster resolves file sizes.
	profCluster, d, err := buildImageNetCluster(c, ranks, false)
	if err != nil {
		return PrefetchRow{}, err
	}
	prof, err := distributed.Run(profCluster, d.Paths, untunedClusterOptions(c))
	if err != nil {
		return PrefetchRow{}, err
	}
	sizeOf := fileSizes(profCluster.FS)

	// The working set the ladder scales: the largest per-rank epoch shard.
	var shardBytes int64
	for r := 0; r < ranks; r++ {
		var b int64
		for _, p := range distributed.ShardPaths(d.Paths, c.shuffleSeed(), ranks, r) {
			if sz, ok := sizeOf(p); ok {
				b += sz
			}
		}
		shardBytes = max(shardBytes, b)
	}
	if shardBytes == 0 {
		return PrefetchRow{}, fmt.Errorf("prefetch: ranks=%d: empty shard working set", ranks)
	}

	// The advisor's natural plan at the node tier's full capacity; each
	// rung truncates it to its quota.
	fullAdvices := adviseRankStaging(profCluster, prof)

	// Every rank's two-epoch clairvoyant schedule; the cold and staged
	// baselines run it explicitly with no prefetcher.
	schedules := make([][]string, ranks)
	for r := range schedules {
		schedules[r] = prefetch.Schedule(d.Paths, c.shuffleSeed(), ranks, r, prefetchEpochs)
	}
	runScheduled := func(advices []*core.StagingAdvice) (*distributed.Result, error) {
		return runImageNetCluster(c, ranks, false, func(cl *platform.Cluster, o *distributed.Options) error {
			o.RankPaths = schedules
			if err := applyClusterStaging(cl, advices); err != nil {
				return fmt.Errorf("prefetch: ranks=%d: %w", ranks, err)
			}
			return nil
		})
	}

	// Cold baseline: the explicit two-epoch schedules with no cache tier.
	cold, err := runScheduled(nil)
	if err != nil {
		return PrefetchRow{}, err
	}
	coldBytes := cold.Merged.TotalPosix(darshan.POSIX_BYTES_READ)
	row := PrefetchRow{
		Ranks:        ranks,
		ColdEpochSec: cold.WallSeconds / prefetchEpochs,
	}

	// sameBytes passes a variant's run error through and fails a run that
	// did not read exactly the cold epochs' bytes.
	sameBytes := func(res *distributed.Result, err error, variant string) error {
		if err != nil {
			return err
		}
		if got := res.Merged.TotalPosix(darshan.POSIX_BYTES_READ); got != coldBytes {
			return fmt.Errorf("prefetch: ranks=%d: %s run read %d bytes, cold %d — not the same epochs",
				ranks, variant, got, coldBytes)
		}
		return nil
	}

	for _, frac := range prefetchCapacityLadder {
		capBytes := int64(frac * float64(shardBytes))
		rung := PrefetchRung{
			Frac:        frac,
			CacheBytes:  capBytes,
			Constrained: capBytes < shardBytes,
		}

		// Offline baseline: the PR 5 staging plan, truncated to this
		// rung's quota, applied between runs.
		advices := make([]*core.StagingAdvice, len(fullAdvices))
		for r, adv := range fullAdvices {
			advices[r] = capStagingAdvice(adv, capBytes, sizeOf)
		}
		staged, err := runScheduled(advices)
		if err := sameBytes(staged, err, "staged"); err != nil {
			return PrefetchRow{}, err
		}
		rung.StagedEpochSec = staged.WallSeconds / prefetchEpochs

		// Prefetched runs: one daemon per node over the same schedules.
		runPrefetched := func(peer bool) (*distributed.Result, []prefetch.NodeReport, error) {
			cluster, data, err := buildImageNetCluster(c, ranks, false)
			if err != nil {
				return nil, nil, err
			}
			return prefetch.RunCluster(cluster, data.Paths, untunedClusterOptions(c), prefetch.Config{
				Depth:       prefetchDepth,
				Fetchers:    prefetchFetchers,
				CacheBytes:  capBytes,
				PeerServing: peer,
			}, prefetchEpochs)
		}
		noPeer, _, err := runPrefetched(false)
		if err := sameBytes(noPeer, err, "prefetch"); err != nil {
			return PrefetchRow{}, err
		}
		rung.NoPeerEpochSec = noPeer.WallSeconds / prefetchEpochs
		withPeer, reports, err := runPrefetched(true)
		if err := sameBytes(withPeer, err, "peer-prefetch"); err != nil {
			return PrefetchRow{}, err
		}
		rung.PeerEpochSec = withPeer.WallSeconds / prefetchEpochs

		var local, peerHits, pfs int64
		for _, rep := range reports {
			local += rep.Cache.LocalHits
			peerHits += rep.Cache.PeerHits
			pfs += rep.Cache.PFSReads
			rung.Evictions += rep.Cache.Evictions
		}
		if total := local + peerHits + pfs; total > 0 {
			rung.LocalRate = float64(local) / float64(total)
			rung.PeerRate = float64(peerHits) / float64(total)
			rung.PFSRate = float64(pfs) / float64(total)
		}

		// The acceptance invariants, verified rather than just reported.
		if rung.PeerEpochSec >= row.ColdEpochSec {
			return PrefetchRow{}, fmt.Errorf(
				"prefetch: ranks=%d cap %.0f%%: prefetched epoch %.2fs did not beat cold Lustre %.2fs",
				ranks, frac*100, rung.PeerEpochSec, row.ColdEpochSec)
		}
		if rung.Constrained && rung.PeerEpochSec >= rung.StagedEpochSec {
			return PrefetchRow{}, fmt.Errorf(
				"prefetch: ranks=%d cap %.0f%%: prefetched epoch %.2fs did not beat the static plan %.2fs on a constrained rung",
				ranks, frac*100, rung.PeerEpochSec, rung.StagedEpochSec)
		}
		row.Rungs = append(row.Rungs, rung)
	}
	return row, nil
}

// PrefetchExperiment sweeps the rank ladder and, per rank count, the cache
// capacity ladder.
func PrefetchExperiment(c Config) (*PrefetchResult, error) {
	rows, err := sweep(c, c.ladder(DefaultRankSweep...), runPrefetchPoint)
	if err != nil {
		return nil, err
	}
	return &PrefetchResult{Rows: rows}, nil
}
