package main

import (
	"reflect"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		name string
		line string
		want Benchmark
		ok   bool
	}{
		{
			name: "artifact line with experiment metrics",
			line: "BenchmarkFig7aImageNetProfile-8   1   297085251 ns/op   123 B/op   4 allocs/op   3.268 bandwidth_MBps",
			want: Benchmark{
				Name: "Fig7aImageNetProfile", Iterations: 1,
				NsPerOp: 297085251, BytesPerOp: 123, AllocsPerOp: 4,
				Metrics: map[string]float64{"bandwidth_MBps": 3.268},
			},
			ok: true,
		},
		{
			// The tune experiment's tuned-vs-untuned gap must survive the
			// parse so every BENCH_<n>.json carries the epoch delta.
			name: "tune line with epoch delta metrics",
			line: "BenchmarkTuneRankAware-8   1   512345678 ns/op   8.700 ranks4_epoch_delta_s   10.567 ranks4_speedup_x   0.909 ranks4_tuned_epoch_s   9.609 ranks4_untuned_epoch_s",
			want: Benchmark{
				Name: "TuneRankAware", Iterations: 1, NsPerOp: 512345678,
				Metrics: map[string]float64{
					"ranks4_epoch_delta_s":   8.7,
					"ranks4_speedup_x":       10.567,
					"ranks4_tuned_epoch_s":   0.909,
					"ranks4_untuned_epoch_s": 9.609,
				},
			},
			ok: true,
		},
		{
			// The prefetch experiment's headline metrics must survive the
			// parse so the BENCH_<n>.json snapshots track the online-vs-
			// offline gap and the hit-rate breakdown per commit.
			name: "prefetch line with speedup and hit-rate metrics",
			line: "BenchmarkPrefetchEpoch-8   1   734567890 ns/op   0.970 prefetch_local_hit_rate   6.412 prefetch_speedup_vs_cold_x   4.046 prefetch_speedup_vs_staging_x   5.690 ranks8_cap025_staged_epoch_s",
			want: Benchmark{
				Name: "PrefetchEpoch", Iterations: 1, NsPerOp: 734567890,
				Metrics: map[string]float64{
					"prefetch_local_hit_rate":       0.970,
					"prefetch_speedup_vs_cold_x":    6.412,
					"prefetch_speedup_vs_staging_x": 4.046,
					"ranks8_cap025_staged_epoch_s":  5.690,
				},
			},
			ok: true,
		},
		{
			// The failover experiment's recovery-cost metrics must survive
			// the parse so the BENCH_<n>.json snapshots track the
			// restore delta, downtime and restore-burst bandwidth per commit.
			name: "failover line with recovery metrics",
			line: "BenchmarkFailover-8   1   823456789 ns/op   3.563 failover_restore_delta_s   2.000 ranks8_downtime_s   348.891 ranks8_restore_MBps   12.910 ranks8_fail_epoch_s   9.347 ranks8_nofail_epoch_s",
			want: Benchmark{
				Name: "Failover", Iterations: 1, NsPerOp: 823456789,
				Metrics: map[string]float64{
					"failover_restore_delta_s": 3.563,
					"ranks8_downtime_s":        2.000,
					"ranks8_restore_MBps":      348.891,
					"ranks8_fail_epoch_s":      12.910,
					"ranks8_nofail_epoch_s":    9.347,
				},
			},
			ok: true,
		},
		{
			// The elastic experiment's headline metrics must survive the
			// parse so the BENCH_<n>.json snapshots track the elastic-vs-
			// rollback downtime gap and the retry volume per commit.
			name: "elastic line with downtime delta and retry metrics",
			line: "BenchmarkElastic-8   1   912345678 ns/op   4.217 elastic_downtime_delta_s   36.000 retry_total   11.402 ranks8_storm_rollback_s   8.916 ranks8_storm_elastic_s",
			want: Benchmark{
				Name: "Elastic", Iterations: 1, NsPerOp: 912345678,
				Metrics: map[string]float64{
					"elastic_downtime_delta_s": 4.217,
					"retry_total":              36.000,
					"ranks8_storm_rollback_s":  11.402,
					"ranks8_storm_elastic_s":   8.916,
				},
			},
			ok: true,
		},
		{
			// The data service experiment's headline metrics must survive
			// the parse so the BENCH_<n>.json snapshots track the jobs-ramp
			// knee and the shared-tier dedup ratio per commit.
			name: "dataservice line with knee and dedup metrics",
			line: "BenchmarkDataService-8   1   1023456789 ns/op   64.000 dataservice_jobs_knee   201.355 dataservice_dedup_ratio   1.842 dataservice_speedup_vs_independent_x   0.412 fleet8_jobs256_pfs_util",
			want: Benchmark{
				Name: "DataService", Iterations: 1, NsPerOp: 1023456789,
				Metrics: map[string]float64{
					"dataservice_jobs_knee":                64.000,
					"dataservice_dedup_ratio":              201.355,
					"dataservice_speedup_vs_independent_x": 1.842,
					"fleet8_jobs256_pfs_util":              0.412,
				},
			},
			ok: true,
		},
		{
			// Artifacts are sub-benchmarks of BenchmarkArtifact: the name
			// keeps the registry id after the slash.
			name: "artifact sub-benchmark line",
			line: "BenchmarkArtifact/fig7a-2   1   17434124 ns/op   3.256 bandwidth_MBps   0.5000 zero_read_frac",
			want: Benchmark{
				Name: "Artifact/fig7a", Iterations: 1, NsPerOp: 17434124,
				Metrics: map[string]float64{"bandwidth_MBps": 3.256, "zero_read_frac": 0.5},
			},
			ok: true,
		},
		{
			name: "serial procs suffix absent",
			line: "BenchmarkRanksScaling   2   1000 ns/op",
			want: Benchmark{Name: "RanksScaling", Iterations: 2, NsPerOp: 1000},
			ok:   true,
		},
		{name: "header line rejected", line: "goos: linux"},
		{name: "pass line rejected", line: "PASS"},
		{name: "truncated line rejected", line: "BenchmarkFoo-8 1"},
		{name: "garbled value rejected", line: "BenchmarkFoo-8 1 abc ns/op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseBenchLine(tc.line)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if ok && !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parsed %+v, want %+v", got, tc.want)
			}
		})
	}
}
