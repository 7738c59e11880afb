// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation and reports the headline quantities as benchmark
// metrics. One sub-benchmark per registered artifact:
//
//	go test -run '^$' -bench=BenchmarkArtifact -benchmem .
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

// BenchmarkArtifact regenerates every registered artifact, one
// sub-benchmark per registry id in paper order (BenchmarkArtifact/table1
// ... BenchmarkArtifact/dataservice), and reports each experiment's
// headline metrics. The cluster experiments (ranks, tune, prefetch,
// recovery, dataservice) verify their invariants inside the run, so a
// violated invariant fails the benchmark rather than mis-reporting it:
//
//	go test -run '^$' -bench 'BenchmarkArtifact/^fig7a$' -benchtime 1x .
func BenchmarkArtifact(b *testing.B) {
	cfg := benchConfig()
	for _, r := range experiments.All() {
		b.Run(r.ID, func(b *testing.B) {
			var res experiments.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = r.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			for k, v := range res.Metrics() {
				// Benchmark metric units must not contain whitespace; some
				// experiment keys carry workload names ("Kaggle BIG 2015_files").
				b.ReportMetric(v, strings.ReplaceAll(k, " ", "_"))
			}
		})
	}
}
