package experiments

import (
	"fmt"
	"strings"

	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DefaultRankSweep is the rank ladder of the distributed scaling table.
var DefaultRankSweep = []int{1, 2, 4, 8}

// RanksRow is one rank count of the scaling table.
type RanksRow struct {
	Ranks int
	// EpochSec is the virtual wall time of the lockstep epoch.
	EpochSec float64
	// AggReadMBps is aggregate POSIX read bandwidth across ranks (merged
	// bytes / epoch time).
	AggReadMBps float64
	// PerRankBusySec is each rank's epoch time minus barrier stalls.
	PerRankBusySec []float64
	// StragglerSpreadPct is (max-min)/mean of per-rank busy time.
	StragglerSpreadPct float64
	// MeanSyncSec is the mean per-rank time lost to gradient
	// synchronization (barrier wait + allreduce).
	MeanSyncSec float64
	// Steps is the lockstep step count.
	Steps int
	// MergedBytesRead is the aggregate POSIX_BYTES_READ of the
	// cross-rank Darshan merge.
	MergedBytesRead int64
}

// RanksResult is the distributed data-parallel scaling experiment: the
// ImageNet workload sharded over N Kebnekaise nodes on one shared Lustre
// system, profiled end-to-end with per-rank Darshan runtimes and reduced
// with the cross-rank merger.
type RanksResult struct {
	Rows []RanksRow
}

// ID implements Result.
func (r *RanksResult) ID() string { return "ranks" }

// Render implements Result.
func (r *RanksResult) Render() string {
	var b strings.Builder
	b.WriteString("Distributed data-parallel ImageNet on shared Lustre (per-rank Darshan logs, cross-rank merge)\n")
	fmt.Fprintf(&b, "  %5s %10s %12s %10s %12s %10s %8s\n",
		"ranks", "epoch(s)", "agg MB/s", "speedup", "straggler%", "sync(s)", "steps")
	base := 0.0
	for _, row := range r.Rows {
		if row.Ranks == 1 {
			base = row.AggReadMBps
		}
		speedup := "-"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", row.AggReadMBps/base)
		}
		fmt.Fprintf(&b, "  %5d %10.2f %12.2f %10s %11.1f%% %10.2f %8d\n",
			row.Ranks, row.EpochSec, row.AggReadMBps, speedup,
			row.StragglerSpreadPct, row.MeanSyncSec, row.Steps)
	}
	return b.String()
}

// Metrics implements Result.
func (r *RanksResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		p := fmt.Sprintf("ranks%d_", row.Ranks)
		out[p+"epoch_s"] = row.EpochSec
		out[p+"agg_MBps"] = row.AggReadMBps
		out[p+"straggler_pct"] = row.StragglerSpreadPct
		out[p+"sync_s"] = row.MeanSyncSec
	}
	return out
}

// rankSweep resolves the rank counts to run: the -ranks override or the
// default {1,2,4,8} ladder.
func (c Config) rankSweep() []int {
	if c.Ranks > 0 {
		return []int{c.Ranks}
	}
	return append([]int(nil), DefaultRankSweep...)
}

// buildImageNetCluster boots a fresh Kebnekaise cluster and generates the
// ImageNet corpus on its shared Lustre mount. Every run and every tuning
// probe builds its own cluster, so runs stay independent and
// deterministic. dxtStdio also traces stdio ops as DXT segments (plain
// DXT covers POSIX only; checkpoints ride the STDIO layer).
func buildImageNetCluster(c Config, ranks int, dxtStdio bool) (*platform.Cluster, *workload.Dataset, error) {
	cfg := darshan.DefaultConfig()
	cfg.DXTStdio = dxtStdio
	cluster := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true, DarshanConfig: &cfg})
	spec := workload.ImageNetSpec(platform.KebnekaiseLustre+"/imagenet", c.Scale)
	d, err := workload.BuildImageNet(cluster.FS, spec)
	if err != nil {
		return nil, nil, err
	}
	return cluster, d, nil
}

// untunedClusterOptions is the sweep's fixed baseline configuration: the
// per-rank parameters every rank count of the ranks table runs with, and
// the "untuned" side of the tune experiment.
func untunedClusterOptions(c Config) distributed.Options {
	return distributed.Options{
		Threads: 4, Batch: 32, Prefetch: 10,
		Shuffle: c.shuffleSeed(),
		Model:   workload.AlexNet, MapFn: workload.ImageNetMap,
		VerifyContent: c.VerifyContent,
	}
}

// runDistributedImageNet executes the sweep's workload at one rank
// count: the ImageNet corpus sharded over a Kebnekaise cluster on shared
// Lustre. It is the shared engine of the ranks table and the distributed
// artifact producer.
func runDistributedImageNet(c Config, ranks int) (*distributed.Result, error) {
	cluster, d, err := buildImageNetCluster(c, ranks, false)
	if err != nil {
		return nil, err
	}
	return distributed.Run(cluster, d.Paths, untunedClusterOptions(c))
}

// runRankCount executes one rank count of the sweep and folds the run
// into a table row, verifying the merge invariant as it goes (a violated
// reduction fails the experiment rather than mis-reporting bandwidth).
func runRankCount(c Config, ranks int) (RanksRow, error) {
	res, err := runDistributedImageNet(c, ranks)
	if err != nil {
		return RanksRow{}, err
	}
	var sumBytes int64
	for _, r := range res.PerRank {
		sumBytes += r.Snapshot.TotalPosix(darshan.POSIX_BYTES_READ)
	}
	mergedBytes := res.Merged.TotalPosix(darshan.POSIX_BYTES_READ)
	if mergedBytes != sumBytes {
		return RanksRow{}, fmt.Errorf("ranks=%d: merged bytes %d != per-rank sum %d", ranks, mergedBytes, sumBytes)
	}
	row := RanksRow{
		Ranks:           ranks,
		EpochSec:        res.WallSeconds,
		Steps:           res.Steps,
		MergedBytesRead: mergedBytes,
	}
	if res.WallSeconds > 0 {
		row.AggReadMBps = float64(mergedBytes) / 1e6 / res.WallSeconds
	}
	var busy []float64
	var sync float64
	for _, r := range res.PerRank {
		busy = append(busy, float64(r.BusyNs())/1e9)
		sync += float64(r.History.SyncNs()) / 1e9
	}
	row.PerRankBusySec = busy
	row.MeanSyncSec = sync / float64(ranks)
	s := stats.Summarize(busy)
	if s.Mean > 0 {
		row.StragglerSpreadPct = (s.Max - s.Min) / s.Mean * 100
	}
	return row, nil
}

// RanksExperiment sweeps the rank ladder and reports aggregate bandwidth,
// per-rank straggler spread and epoch time per rank count.
func RanksExperiment(c Config) (*RanksResult, error) {
	rows, err := sweepRanks(c, c.rankSweep(), runRankCount)
	if err != nil {
		return nil, err
	}
	return &RanksResult{Rows: rows}, nil
}
