package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/workload"
)

// This file is the tune experiment: the loop the paper's §VII only
// sketches, closed end to end at cluster scale. Per rank count it (1)
// runs the untuned baseline every row of the ranks table uses (4
// threads/rank on shared Lustre), (2) feeds the per-rank Darshan
// snapshots to core.AdviseClusterStaging so each rank's small-file shard
// is staged to its node-local NVMe (the Clairvoyant-Prefetching move),
// (3) lets core.ClusterTuner probe short distributed windows on both
// layouts — on shared Lustre the merged POSIX_F_META_TIME exposes the MDS
// saturation knee and the tuner backs per-rank threads off the greedy
// choice; on the staged layout it picks the final per-rank
// threads/prefetch — and (4) re-runs the full epoch tuned. The tuned
// epoch must beat the untuned baseline measurably.

const (
	// tuneProbeSteps is the lockstep window length of one tuning probe.
	tuneProbeSteps = 4
	// tuneMaxProbes bounds the hill-climb probes per layout.
	tuneMaxProbes = 8
	// tuneMaxThreads caps per-rank map parallelism at the node's cores.
	tuneMaxThreads = 28
)

// TuneRow is one rank count of the tuned-vs-untuned table.
type TuneRow struct {
	Ranks int
	// Untuned is the fixed 4-threads/rank shared-Lustre baseline.
	UntunedEpochSec float64
	UntunedAggMBps  float64
	// Tuned is the staged layout under the tuner's per-rank choice.
	TunedEpochSec float64
	TunedAggMBps  float64
	// LustreGreedy/LustreThreads are the bandwidth-greedy and
	// knee-backed-off per-rank thread picks on the shared-Lustre layout;
	// LustreKnee reports whether the merged profile showed the MDS knee.
	LustreGreedy  int
	LustreThreads int
	LustreKnee    bool
	// Threads/Prefetch are the per-rank picks on the staged layout, the
	// configuration the tuned epoch runs.
	Threads  int
	Prefetch int
	// StagedFiles sums the files of the per-rank staging plans.
	StagedFiles int
}

// SpeedupX returns untuned/tuned epoch time.
func (r *TuneRow) SpeedupX() float64 { return ratio(r.UntunedEpochSec, r.TunedEpochSec) }

// TuneResult is the rank-aware tuning experiment.
type TuneResult struct {
	Rows []TuneRow
}

var tuneColumns = columns{
	{"ranks", 5, "%d"}, {"untuned(s)", 11, "%.2f"}, {"tuned(s)", 9, "%.2f"}, {"speedup", 8, "%.2fx"},
	{"pfs-threads", 14, "%d(<-%2d)"}, {"knee", 5, "%s"}, {"nvme-threads", 13, "%d"}, {"prefetch", 9, "%d"},
	{"staged-files", 13, "%d"},
}

// Render implements Result.
func (r *TuneResult) Render() string {
	var b strings.Builder
	b.WriteString("Rank-aware tuning and per-rank staging over merged logs (untuned baseline: 4 threads/rank, shared Lustre)\n")
	b.WriteString(tuneColumns.header())
	for _, row := range r.Rows {
		knee := "-"
		if row.LustreKnee {
			knee = "yes"
		}
		b.WriteString(tuneColumns.row(row.Ranks, row.UntunedEpochSec, row.TunedEpochSec, row.SpeedupX(),
			row.LustreThreads, row.LustreGreedy, knee, row.Threads, row.Prefetch, row.StagedFiles))
	}
	return b.String()
}

// Metrics implements Result.
func (r *TuneResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		p := fmt.Sprintf("ranks%d_", row.Ranks)
		out[p+"untuned_epoch_s"] = row.UntunedEpochSec
		out[p+"tuned_epoch_s"] = row.TunedEpochSec
		out[p+"untuned_agg_MBps"] = row.UntunedAggMBps
		out[p+"tuned_agg_MBps"] = row.TunedAggMBps
		out[p+"epoch_delta_s"] = row.UntunedEpochSec - row.TunedEpochSec
		out[p+"speedup_x"] = row.SpeedupX()
		out[p+"lustre_threads"] = float64(row.LustreThreads)
		out[p+"tuned_threads"] = float64(row.Threads)
		out[p+"tuned_prefetch"] = float64(row.Prefetch)
		out[p+"staged_files"] = float64(row.StagedFiles)
		knee := 0.0
		if row.LustreKnee {
			knee = 1
		}
		out[p+"mds_knee"] = knee
	}
	return out
}

// applyClusterStaging migrates every rank's advised files to that rank's
// node-local fast mount (the between-runs `mv` of Fig. 11b, per node).
func applyClusterStaging(cluster *platform.Cluster, advices []*core.StagingAdvice) error {
	for r, adv := range advices {
		if adv == nil {
			continue
		}
		if _, err := core.ApplyStaging(cluster.FS, adv, cluster.Nodes[r].FastMount); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// tuneProbe adapts runImageNetCluster into the cluster tuner's probe: a
// short lockstep window, on the staged layout when advices is set,
// summarized from the merged cross-rank profile.
func tuneProbe(c Config, ranks int, advices []*core.StagingAdvice) core.ClusterProbeFunc {
	return func(threads, prefetch int) (core.ClusterObservation, error) {
		res, err := runImageNetCluster(c, ranks, false, func(cl *platform.Cluster, o *distributed.Options) error {
			o.Threads, o.Prefetch = threads, prefetch
			o.ProbeSteps = tuneProbeSteps
			return applyClusterStaging(cl, advices)
		})
		if err != nil {
			return core.ClusterObservation{}, err
		}
		return core.ClusterObservation{
			EpochSeconds:     res.WallSeconds,
			MetaTimeSeconds:  res.Merged.TotalPosixF(darshan.POSIX_F_META_TIME),
			AggBandwidthMBps: ratio(float64(res.Merged.TotalPosix(darshan.POSIX_BYTES_READ))/1e6, res.WallSeconds),
		}, nil
	}
}

// adviseRankStaging derives per-rank staging plans from a run's job-end
// snapshots, bounded by the node NVMe capacity.
func adviseRankStaging(cluster *platform.Cluster, res *distributed.Result) []*core.StagingAdvice {
	snaps := make([]*darshan.Snapshot, len(res.PerRank))
	for r := range res.PerRank {
		snaps[r] = res.PerRank[r].Snapshot
	}
	return core.AdviseClusterStaging(snaps, core.ClusterStagingOptions{
		PerNodeCapacity: cluster.Nodes[0].Optane.Capacity(),
		SizeOf:          fileSizes(cluster.FS),
	})
}

// adviseTuneStaging derives the per-rank staging plans from the untuned
// run's job-end snapshots and verifies each plan stages only files of
// that rank's shard, within the node NVMe capacity. A violated plan fails
// the experiment rather than silently staging another rank's data.
func adviseTuneStaging(c Config, ranks int, cluster *platform.Cluster, d *workload.Dataset, res *distributed.Result) ([]*core.StagingAdvice, error) {
	capacity := cluster.Nodes[0].Optane.Capacity()
	advices := adviseRankStaging(cluster, res)
	seed := untunedClusterOptions(c).Shuffle
	for r, adv := range advices {
		shard := distributed.ShardPaths(d.Paths, seed, ranks, r)
		sort.Strings(shard)
		for _, p := range adv.Files {
			i := sort.SearchStrings(shard, p)
			if i >= len(shard) || shard[i] != p {
				return nil, fmt.Errorf("tune: ranks=%d: rank %d plan stages %s outside its shard", ranks, r, p)
			}
		}
		if adv.Bytes > capacity {
			return nil, fmt.Errorf("tune: ranks=%d: rank %d plan (%d bytes) exceeds node NVMe capacity %d",
				ranks, r, adv.Bytes, capacity)
		}
	}
	return advices, nil
}

// runTunePoint executes one rank count: untuned baseline, staging advice,
// both tuner passes and the tuned epoch.
func runTunePoint(c Config, ranks int) (TuneRow, error) {
	// Untuned baseline: the exact configuration of the ranks table.
	cluster, d, err := buildImageNetCluster(c, ranks, false)
	if err != nil {
		return TuneRow{}, err
	}
	untuned, err := distributed.Run(cluster, d.Paths, untunedClusterOptions(c))
	if err != nil {
		return TuneRow{}, err
	}
	row := TuneRow{Ranks: ranks, UntunedEpochSec: untuned.WallSeconds}
	untunedBytes := untuned.Merged.TotalPosix(darshan.POSIX_BYTES_READ)
	row.UntunedAggMBps = ratio(float64(untunedBytes)/1e6, untuned.WallSeconds)

	// Per-rank staging plans from the untuned profile.
	advices, err := adviseTuneStaging(c, ranks, cluster, d, untuned)
	if err != nil {
		return TuneRow{}, err
	}
	for _, adv := range advices {
		row.StagedFiles += adv.FileCount
	}

	// Tuner pass 1, shared Lustre: the merged meta-time knee backs the
	// per-rank threads off the bandwidth-greedy pick.
	lustre := core.NewClusterTuner(ranks, 1, tuneMaxThreads)
	lustreAdv, err := lustre.Tune(1, tuneProbe(c, ranks, nil), tuneMaxProbes)
	if err != nil {
		return TuneRow{}, fmt.Errorf("tune: ranks=%d: %w", ranks, err)
	}
	row.LustreGreedy = lustreAdv.BandwidthThreads
	row.LustreThreads = lustreAdv.ThreadsPerRank()
	row.LustreKnee = lustreAdv.KneeDetected

	// Tuner pass 2, staged layout: pick the configuration the tuned
	// epoch actually runs.
	staged := core.NewClusterTuner(ranks, 1, tuneMaxThreads)
	stagedAdv, err := staged.Tune(1, tuneProbe(c, ranks, advices), tuneMaxProbes)
	if err != nil {
		return TuneRow{}, fmt.Errorf("tune: ranks=%d: %w", ranks, err)
	}
	row.Threads = stagedAdv.ThreadsPerRank()
	row.Prefetch = stagedAdv.PrefetchPerRank()

	// Tuned epoch: staged layout, per-rank threads/prefetch.
	tuned, err := runImageNetCluster(c, ranks, false, func(cl *platform.Cluster, o *distributed.Options) error {
		o.RankThreads = stagedAdv.Threads
		o.RankPrefetch = stagedAdv.Prefetch
		return applyClusterStaging(cl, advices)
	})
	if err != nil {
		return TuneRow{}, err
	}
	row.TunedEpochSec = tuned.WallSeconds
	tunedBytes := tuned.Merged.TotalPosix(darshan.POSIX_BYTES_READ)
	if tunedBytes != untunedBytes {
		return TuneRow{}, fmt.Errorf("tune: ranks=%d: tuned run read %d bytes, untuned %d — not the same epoch",
			ranks, tunedBytes, untunedBytes)
	}
	row.TunedAggMBps = ratio(float64(tunedBytes)/1e6, tuned.WallSeconds)
	return row, nil
}

// TuneExperiment sweeps the rank ladder and reports untuned vs tuned
// epoch time per rank count.
func TuneExperiment(c Config) (*TuneResult, error) {
	rows, err := sweep(c, c.ladder(DefaultRankSweep...), runTunePoint)
	if err != nil {
		return nil, err
	}
	return &TuneResult{Rows: rows}, nil
}
