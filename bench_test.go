// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation and reports the headline quantities as benchmark
// metrics. One benchmark per artifact:
//
//	go test -bench=. -benchmem
//
// Benchmarks default to scale 0.2 (a fifth of the paper's dataset sizes
// and step counts) so the suite completes in minutes; set
// TFDARSHAN_BENCH_SCALE=1.0 to run at paper scale. All quantities that are
// ratios or counts-per-file are scale-invariant; EXPERIMENTS.md records
// the full-scale paper-vs-measured comparison.
package repro

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func benchConfig() experiments.Config {
	scale := 0.2
	if s := os.Getenv("TFDARSHAN_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			scale = v
		}
	}
	return experiments.Config{Scale: scale}
}

func runArtifact(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown artifact %s", id)
	}
	cfg := benchConfig()
	var res experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = runner.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for k, v := range res.Metrics() {
		// Benchmark metric units must not contain whitespace; some
		// experiment keys carry workload names ("Kaggle BIG 2015_files").
		b.ReportMetric(v, strings.ReplaceAll(k, " ", "_"))
	}
}

// BenchmarkTable1FeatureMatrix regenerates Table I (feature comparison).
func BenchmarkTable1FeatureMatrix(b *testing.B) { runArtifact(b, "table1") }

// BenchmarkTable2Datasets regenerates Table II (dataset characteristics).
func BenchmarkTable2Datasets(b *testing.B) { runArtifact(b, "table2") }

// BenchmarkFig3StreamImageNet regenerates Fig. 3 (STREAM ImageNet
// bandwidth: dstat vs tf-Darshan).
func BenchmarkFig3StreamImageNet(b *testing.B) { runArtifact(b, "fig3") }

// BenchmarkFig4StreamMalware regenerates Fig. 4 (STREAM malware bandwidth;
// ~10x Fig. 3's).
func BenchmarkFig4StreamMalware(b *testing.B) { runArtifact(b, "fig4") }

// BenchmarkFig5Overhead regenerates Fig. 5 (profiling overhead vs no
// profiler across four workloads).
func BenchmarkFig5Overhead(b *testing.B) { runArtifact(b, "fig5") }

// BenchmarkFig6Checkpoint regenerates Fig. 6 (checkpoint fwrites captured
// on the STDIO layer).
func BenchmarkFig6Checkpoint(b *testing.B) { runArtifact(b, "fig6") }

// BenchmarkFig7aImageNetProfile regenerates Fig. 7a (ImageNet, 1 thread:
// ~3MB/s, 2 reads per file, 50% zero-length).
func BenchmarkFig7aImageNetProfile(b *testing.B) { runArtifact(b, "fig7a") }

// BenchmarkFig7bImageNetThreads regenerates Fig. 7b (28 threads: ~8x
// bandwidth).
func BenchmarkFig7bImageNetThreads(b *testing.B) { runArtifact(b, "fig7b") }

// BenchmarkFig8ZeroReadTimeline regenerates Fig. 8 (TraceViewer extract:
// every file read ends in a zero-length read).
func BenchmarkFig8ZeroReadTimeline(b *testing.B) { runArtifact(b, "fig8") }

// BenchmarkFig9MalwareProfile regenerates Fig. 9 (malware, 1 thread:
// ~94MB/s, reads clustered 100KB-1MB, mostly sequential).
func BenchmarkFig9MalwareProfile(b *testing.B) { runArtifact(b, "fig9") }

// BenchmarkFig10MalwareTimeline regenerates Fig. 10 (ReadFile ops vs POSIX
// segments in the TraceViewer).
func BenchmarkFig10MalwareTimeline(b *testing.B) { runArtifact(b, "fig10") }

// BenchmarkFig11aMalwareThreads regenerates Fig. 11a (16 threads drop
// bandwidth 94 -> 77 MB/s).
func BenchmarkFig11aMalwareThreads(b *testing.B) { runArtifact(b, "fig11a") }

// BenchmarkFig11bStaging regenerates Fig. 11b (staging files <2MB to
// Optane: ~+19% bandwidth from ~8% of bytes).
func BenchmarkFig11bStaging(b *testing.B) { runArtifact(b, "fig11b") }

// BenchmarkFig12DstatComparison regenerates Fig. 12 (whole-run disk
// activity: staged finishes first, 16-thread run last).
func BenchmarkFig12DstatComparison(b *testing.B) { runArtifact(b, "fig12") }

// BenchmarkSuiteSerial regenerates every artifact back to back on one
// worker — the end-to-end wall-clock cost of the full evaluation.
func BenchmarkSuiteSerial(b *testing.B) { runSuite(b, 1) }

// BenchmarkSuiteParallel regenerates every artifact through the parallel
// harness (one worker per core). Kernels share nothing, so the outputs are
// byte-identical to BenchmarkSuiteSerial; the ratio of the two ns/op
// values is the wall-clock speedup the host's cores buy.
func BenchmarkSuiteParallel(b *testing.B) { runSuite(b, -1) }

func runSuite(b *testing.B, parallel int) {
	b.Helper()
	cfg := benchConfig()
	cfg.Parallel = parallel
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(cfg, ids); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(ids)), "artifacts")
	b.ReportMetric(float64(experiments.Parallelism(parallel)), "workers")
}

// BenchmarkRanksScaling runs the distributed data-parallel rank sweep
// ({1,2,4,8} ranks sharing one Lustre system): per-rank Darshan logs,
// cross-rank merge, aggregate bandwidth and straggler spread. The merge
// invariant is verified inside the experiment, so contention-path or
// reduction regressions fail here, not just in unit tests.
func BenchmarkRanksScaling(b *testing.B) { runArtifact(b, "ranks") }

// BenchmarkTuneRankAware runs the rank-aware tuning experiment over the
// same rank ladder: untuned 4-threads/rank on shared Lustre vs per-rank
// threads/prefetch picked by cluster probes over the merged profile plus
// each rank's shard staged to its node-local NVMe. The reported
// ranks<N>_epoch_delta_s / ranks<N>_speedup_x metrics land in the
// BENCH_<n>.json perf snapshots, so the tuned-vs-untuned gap is tracked
// per commit. The staging-plan and same-bytes invariants are verified
// inside the experiment.
func BenchmarkTuneRankAware(b *testing.B) { runArtifact(b, "tune") }

// BenchmarkPrefetchEpoch runs the clairvoyant prefetching experiment over
// the rank ladder: two-epoch per-epoch-reshuffled training, cold Lustre vs
// the offline staging plan vs per-node prefetch daemons (without and with
// peer-cache serving) across the cache-capacity ladder. The headline
// prefetch_speedup_vs_staging_x and prefetch_local_hit_rate metrics (plus
// the per-rung epoch times and hit-rate breakdown) land in the
// BENCH_<n>.json perf snapshots. The beats-cold-at-every-rung and
// beats-staging-on-constrained-rungs invariants are verified inside the
// experiment.
func BenchmarkPrefetchEpoch(b *testing.B) { runArtifact(b, "prefetch") }

// BenchmarkRecovery runs the failure/recovery experiment over the rank
// ladder (ranks >= 2): one rank dies three quarters through the epoch
// with a 2s node reboot and the job recovers by rollback to rank-0 or
// all-ranks checkpoints, or elastically (survivors re-shard the victim's
// remaining work and keep committing steps), at every rung of a
// transient-fault ladder (clean, flaky reads with bounded retries, an
// MDS-brownout/degraded-OST storm). The headline recovery_restore_delta_s,
// elastic_downtime_delta_s and retry_total metrics (plus per-rung epoch
// times, downtime and restore-burst bandwidth) land in the BENCH_<n>.json
// perf snapshots. The restore-reads-after-failure, checkpoint rank-factor,
// equal-restore-bytes, elastic-beats-rollback, no-restore-storm and
// clean-runs-retry-free invariants are verified inside the experiment.
func BenchmarkRecovery(b *testing.B) { runArtifact(b, "recovery") }

// BenchmarkDataService runs the disaggregated tf.data service experiment:
// per worker-fleet size, a concurrent-job ramp ({4,16,64,256} jobs, each
// an independently shuffled epoch over one shared corpus) served by
// dispatcher-leased data workers through a peer-served NVMe cache tier,
// against the same jobs as independent cold pipelines. The headline
// dataservice_jobs_knee, dataservice_dedup_ratio and
// dataservice_speedup_vs_independent_x metrics (plus per-rung wall times
// and resource utilizations) land in the BENCH_<n>.json perf snapshots.
// The batch-exactness, PFS-bytes-within-[corpus, cold] and
// beats-independent-pipelines invariants are verified inside the
// experiment.
func BenchmarkDataService(b *testing.B) { runArtifact(b, "dataservice") }
