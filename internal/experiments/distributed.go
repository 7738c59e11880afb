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

var ranksColumns = columns{
	{"ranks", 5, "%d"}, {"epoch(s)", 10, "%.2f"}, {"agg MB/s", 12, "%.2f"}, {"speedup", 10, "%s"},
	{"straggler%", 12, "%.1f%%"}, {"sync(s)", 10, "%.2f"}, {"steps", 8, "%d"},
}

// Render implements Result.
func (r *RanksResult) Render() string {
	var b strings.Builder
	b.WriteString("Distributed data-parallel ImageNet on shared Lustre (per-rank Darshan logs, cross-rank merge)\n")
	b.WriteString(ranksColumns.header())
	base := 0.0
	for _, row := range r.Rows {
		if row.Ranks == 1 {
			base = row.AggReadMBps
		}
		speedup := "-"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", row.AggReadMBps/base)
		}
		b.WriteString(ranksColumns.row(row.Ranks, row.EpochSec, row.AggReadMBps, speedup,
			row.StragglerSpreadPct, row.MeanSyncSec, row.Steps))
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

// buildImageNetCluster boots a fresh Kebnekaise cluster and generates the
// ImageNet corpus on its shared Lustre mount. Every run and every tuning
// probe builds its own cluster, so runs stay independent and
// deterministic. dxtStdio also traces stdio ops as DXT segments (plain
// DXT covers POSIX only; checkpoints ride the STDIO layer).
func buildImageNetCluster(c Config, ranks int, dxtStdio bool) (*platform.Cluster, *workload.Dataset, error) {
	cfg := darshan.DefaultConfig()
	cfg.DXTStdio = dxtStdio
	cluster := platform.NewKebnekaiseCluster(ranks, platform.Options{PreloadDarshan: true, DarshanConfig: &cfg})
	d, err := imageNet.dataset(cluster.FS, c.Scale)
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
		Model:   imageNet.model, MapFn: imageNet.mapFn,
		VerifyContent: c.VerifyContent,
	}
}

// runImageNetCluster runs the ImageNet job once on a fresh cluster with
// the untuned options. prepare, when set, adjusts the cluster (staging
// plans, fault plans) and the options first; the generated namespace is
// deterministic, so plans made on one cluster apply to the next. It is
// the shared engine of the ranks, tune, prefetch and recovery experiments
// and the distributed artifact producer.
func runImageNetCluster(c Config, ranks int, dxtStdio bool, prepare func(*platform.Cluster, *distributed.Options) error) (*distributed.Result, error) {
	cluster, d, err := buildImageNetCluster(c, ranks, dxtStdio)
	if err != nil {
		return nil, err
	}
	opts := untunedClusterOptions(c)
	if prepare != nil {
		if err := prepare(cluster, &opts); err != nil {
			return nil, err
		}
	}
	return distributed.Run(cluster, d.Paths, opts)
}

// runRankCount executes one rank count of the sweep and folds the run
// into a table row, verifying the merge invariant as it goes (a violated
// reduction fails the experiment rather than mis-reporting bandwidth).
func runRankCount(c Config, ranks int) (RanksRow, error) {
	res, err := runImageNetCluster(c, ranks, false, nil)
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
	row.AggReadMBps = ratio(float64(mergedBytes)/1e6, res.WallSeconds)
	var busy []float64
	var sync float64
	for _, r := range res.PerRank {
		busy = append(busy, float64(r.BusyNs())/1e9)
		sync += float64(r.History.SyncNs()) / 1e9
	}
	row.PerRankBusySec = busy
	row.MeanSyncSec = sync / float64(ranks)
	s := stats.Summarize(busy)
	row.StragglerSpreadPct = ratio(s.Max-s.Min, s.Mean) * 100
	return row, nil
}

// RanksExperiment sweeps the rank ladder and reports aggregate bandwidth,
// per-rank straggler spread and epoch time per rank count.
func RanksExperiment(c Config) (*RanksResult, error) {
	rows, err := sweep(c, c.ladder(DefaultRankSweep...), runRankCount)
	if err != nil {
		return nil, err
	}
	return &RanksResult{Rows: rows}, nil
}
