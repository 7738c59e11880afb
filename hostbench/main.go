// Command hostbench is the repository's layered host-cost benchmark. It
// runs one workload over the simulated I/O stack as a closed batch job,
// serially in one process, checks every run's simulated results, and
// prints host-cost metrics by name with their units. See README.md for
// the workloads, the metric table and the import surface.
//
// Run from the repository root:
//
//	bash hostbench/run.sh --workload imagenet-1node --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// reports the per-layer metrics from traced runs, the layer probes and
// the tracing overhead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/darshan"
	"repro/internal/tf/profiler"
)

// defaultSeed is the workload seed when --seed is not given.
const defaultSeed = 1

// minRuns is the fewest measured runs an invocation makes, whatever
// --seconds says.
const minRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the --trace 0 metrics in print order.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"ns_per_io", "ns"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"check_pass_rate", "ratio"},
}

// perLayer lists the --trace 1 metrics in print order. Units named sim_s
// are simulated seconds; every other time is host time.
var perLayer = []struct{ name, unit string }{
	{"platform.boot_s", "s"},
	{"workload.generate_s", "s"},
	{"workload.files", "count"},
	{"sim.run_s", "s"},
	{"sim.virtual_s", "sim_s"},
	{"sim.probe_handoff_ns", "ns"},
	{"sim.probe_handoff_allocs", "allocs/op"},
	{"sim.probe_sleep_ns", "ns"},
	{"sim.probe_sleep_allocs", "allocs/op"},
	{"sim.probe_warp_ns", "ns"},
	{"sim.probe_warp_allocs", "allocs/op"},
	{"vfs.probe_open_ns", "ns"},
	{"vfs.probe_pread_ns", "ns"},
	{"vfs.probe_allocs_per_op", "allocs/op"},
	{"darshan.probe_wrap_ns", "ns"},
	{"darshan.probe_wrap_allocs", "allocs/op"},
	{"tfio.probe_readfile_ns", "ns"},
	{"tfio.probe_readfile_allocs", "allocs/op"},
	{"tfdata.probe_sample_ns", "ns"},
	{"tfdata.probe_sample_allocs", "allocs/op"},
	{"vfs.probe_pwrite_ns", "ns"},
	{"vfs.probe_pwrite_allocs", "allocs/op"},
	{"vfs.probe_fwrite_ns", "ns"},
	{"vfs.probe_fwrite_allocs", "allocs/op"},
	{"tfio.probe_ckpt_ms", "ms"},
	{"vfs.cache_local_hits", "count"},
	{"vfs.cache_peer_hits", "count"},
	{"vfs.cache_pfs_reads", "count"},
	{"vfs.cache_evictions", "count"},
	{"vfs.cache_hit_ratio", "ratio"},
	{"prefetch.fetched", "count"},
	{"prefetch.refused", "count"},
	{"prefetch.useful_ratio", "ratio"},
	{"darshan.merge_s", "s"},
	{"darshan.merge_alloc_mb", "MB"},
	{"darshan.encode_s", "s"},
	{"darshan.decode_s", "s"},
	{"darshan.stream_decode_s", "s"},
	{"darshan.log_mb", "MB"},
	{"core.analyze_s", "s"},
	{"core.export_s", "s"},
	{"core.export_mb", "MB"},
	{"dataservice.leases", "count"},
	{"dataservice.dispatcher_busy_frac", "ratio"},
	{"dataservice.dedup_ratio", "ratio"},
	{"dataservice.pfs_mb", "MB"},
	{"darshan.posix_ops", "count"},
	{"darshan.stdio_ops", "count"},
	{"darshan.records", "count"},
	{"darshan.dxt_segments", "count"},
	{"storage.read_ops", "count"},
	{"storage.write_ops", "count"},
	{"storage.meta_ops", "count"},
	{"storage.read_mb", "MB"},
	{"storage.write_mb", "MB"},
	{"storage.busy_s", "sim_s"},
	{"tfio.files", "count"},
	{"tfio.read_mb", "MB"},
	{"tfdata.samples", "count"},
	{"tfdata.batches", "count"},
	{"keras.steps", "count"},
	{"keras.input_wait_frac", "ratio"},
	{"distributed.sync_s", "sim_s"},
	{"distributed.failures", "count"},
	{"distributed.ckpt_mb", "MB"},
	{"distributed.restore_mb", "MB"},
	{"tf.retries", "count"},
	{"tf.giveups", "count"},
	{"tf.backoff_s", "sim_s"},
	{"vfs.faults_injected", "count"},
	{"vfs.fault_delay_s", "sim_s"},
	{"trace.overhead_s", "s"},
}

func main() {
	name := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Int64("seed", defaultSeed, "workload seed: drives the population, shuffle and fault seeds")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
	peakChild := flag.Bool("peak-child", false, "make one set-up and run and exit; the parent reads this process's peak memory")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: hostbench --workload <name> [--seed n] [--seconds n] [--trace 0|1]")
		fmt.Fprint(os.Stderr, "workloads:")
		for _, w := range workloads {
			fmt.Fprint(os.Stderr, " ", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, reported: map[string]bool{}, window: time.Duration(*seconds) * time.Second}
	if *peakChild {
		// The parent judges the run's checks; the child only has to finish it.
		if b.reference() != nil {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d gomaxprocs %d\n", w.name, *seed, *seconds, *traceMode, runtime.GOMAXPROCS(0))
	var res *result
	var err error
	if *traceMode == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.perLayer()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench runs one workload's invocation.
type bench struct {
	w        workloadDef
	seed     int64
	window   time.Duration
	deadline time.Time

	attempted, failed    int
	checks, checksPassed int
	reported             map[string]bool
	refDigest            string
	ref                  *outcome
}

// sample is one measured run.
type sample struct {
	setupS, wallS, allocMB float64
	out                    *outcome
}

// runOnce sets up and runs the workload once, timing set-up and run
// separately, and checks the run's outputs. A run that fails a check
// counts as failed; one that errors also returns nil, having no timings.
func (b *bench) runOnce(tr *tracer) *sample {
	b.attempted++
	tr.nextRun()
	var ms runtime.MemStats
	runtime.GC()
	t0 := time.Now()
	inst, err := b.w.setup(b.seed, tr)
	setupS := time.Since(t0).Seconds()
	if err != nil {
		return b.fail(fmt.Errorf("setup: %w", err))
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	t1 := time.Now()
	out, err := inst.run(tr)
	wallS := time.Since(t1).Seconds()
	runtime.ReadMemStats(&ms)
	allocMB := float64(ms.TotalAlloc-a0) / 1e6
	if err != nil {
		return b.fail(fmt.Errorf("run: %w", err))
	}
	out.counts["workload.files"] = float64(inst.files)
	out.setDarshanCounts()
	checks, failures := out.check(b.refDigest)
	b.checks += checks
	b.checksPassed += checks - len(failures)
	if b.ref == nil {
		d, err := out.digest()
		if err != nil {
			return b.fail(err)
		}
		b.ref, b.refDigest = out, d
		fmt.Printf("digest %s virtual_ns %d posix_ops %.0f stdio_ops %.0f\n",
			d, out.virtualNs, out.counts["darshan.posix_ops"], out.counts["darshan.stdio_ops"])
	}
	if len(failures) > 0 {
		// The run completed, so its timings stand; it counts as failed.
		b.failed++
		for _, err := range failures {
			if !b.reported[err.Error()] {
				b.reported[err.Error()] = true
				fmt.Printf("run %d check failed: %v\n", b.attempted, err)
			}
		}
	}
	return &sample{setupS: setupS, wallS: wallS, allocMB: allocMB, out: out}
}

func (b *bench) fail(err error) *sample {
	b.failed++
	fmt.Printf("run %d failed: %v\n", b.attempted, err)
	return nil
}

// start opens the measurement window.
func (b *bench) start() { b.deadline = time.Now().Add(b.window) }

// measure runs the workload until the deadline, at least least times
// after the reference run, passing each sample to keep.
func (b *bench) measure(least int, tr func(i int) *tracer, keep func(i int, s *sample)) {
	for i := 0; i < least || time.Now().Before(b.deadline); i++ {
		if s := b.runOnce(tr(i)); s != nil {
			keep(i, s)
		}
	}
}

func (b *bench) result(metrics map[string]metric) *result {
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
}

// reference makes the unmeasured first run, whose digest every later run
// must repeat.
func (b *bench) reference() error {
	if b.runOnce(nil) == nil {
		return errors.New("reference run failed")
	}
	return nil
}

// peakRuns is how many child processes peakRSS starts, one after another.
const peakRuns = 3

// peakRSS returns the median peak resident set size, in MB, of peakRuns
// child processes of this binary that each set up and run the workload
// once, and the digest each child printed. The children run on one
// processor with a stop-the-world GC whose heap target is 10% over the
// live heap, and keep freed pages counted until the kernel needs them,
// so the peak follows the live memory of set-up and run, not when a
// concurrent GC cycle happened to end. A child's peak starts from this
// process's resident size when it was started, so they run before this
// process sets up anything.
func (b *bench) peakRSS() (float64, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	var peaks []float64
	var digests []string
	for range peakRuns {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", b.w.name, "--seed", strconv.FormatInt(b.seed, 10), "--peak-child")
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1", "GOGC=10", "GODEBUG=gcstoptheworld=2,madvdontneed=0")
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, nil, fmt.Errorf("peak-rss child: %w", err)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return 0, nil, errors.New("peak-rss child: no rusage")
		}
		peaks = append(peaks, float64(ru.Maxrss)*1024/1e6)
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == "digest" {
				digests = append(digests, f[1])
			}
		}
	}
	fmt.Printf("peak_rss_mb over %d children: %v\n", peakRuns, peaks)
	return median(peaks), digests, nil
}

// endToEnd measures untraced runs after the reference run.
func (b *bench) endToEnd() (*result, error) {
	peakRSS, digests, err := b.peakRSS()
	if err != nil {
		return nil, err
	}
	b.start()
	if err := b.reference(); err != nil {
		return nil, err
	}
	if len(digests) != peakRuns || slices.ContainsFunc(digests, func(d string) bool { return d != b.refDigest }) {
		return nil, fmt.Errorf("peak-rss children printed digests %v, the reference run %s", digests, b.refDigest)
	}
	var setup, wall, alloc []float64
	b.measure(minRuns, func(int) *tracer { return nil }, func(_ int, s *sample) {
		setup = append(setup, s.setupS)
		wall = append(wall, s.wallS)
		alloc = append(alloc, s.allocMB)
	})
	if len(wall) == 0 {
		return nil, errors.New("no run completed")
	}
	values := map[string]float64{
		"wall_s":          median(wall),
		"setup_s":         median(setup),
		"ns_per_io":       median(wall) * 1e9 / b.ref.ops(),
		"alloc_mb":        median(alloc),
		"peak_rss_mb":     peakRSS,
		"check_pass_rate": float64(b.checksPassed) / float64(b.checks),
	}
	fmt.Printf("runs %d measured %d failed %d error_rate %.4f\n", b.attempted, len(wall), b.failed, float64(b.failed)/float64(b.attempted))
	fmt.Printf("wall_s over %d runs: min %.4f median %.4f max %.4f\n", len(wall), slices.Min(wall), median(wall), slices.Max(wall))
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{Value: values[m.name], Unit: m.unit}
		fmt.Printf("  %-34s %16.6f %s\n", m.name, values[m.name], m.unit)
	}
	return b.result(out), nil
}

// perLayer runs the layer probes, then alternates untraced and traced
// runs; traced runs also time the post-run layer pass.
func (b *bench) perLayer() (*result, error) {
	b.start()
	if err := b.reference(); err != nil {
		return nil, err
	}
	values, err := probes(b.w.probe, b.seed)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	tr := newTracer()
	var plain, traced []float64
	var exportMB float64
	var passErr error
	b.measure(2*minRuns, func(i int) *tracer {
		if i%2 == 1 {
			return tr
		}
		return nil
	}, func(i int, s *sample) {
		if i%2 == 0 {
			plain = append(plain, s.wallS)
			return
		}
		traced = append(traced, s.wallS)
		size, err := layerPass(tr, s.out)
		if err != nil && passErr == nil {
			passErr = err
		}
		exportMB = float64(size) / 1e6
	})
	if passErr != nil {
		return nil, fmt.Errorf("layer pass: %w", passErr)
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, errors.New("no run completed")
	}
	for name, v := range b.ref.counts {
		values[name] = v
	}
	spanMetric := func(metric, span string) {
		secs, _ := tr.durations(span)
		values[metric] = median(secs)
	}
	spanMetric("platform.boot_s", "platform.boot")
	spanMetric("workload.generate_s", "workload.generate")
	spanMetric("sim.run_s", "sim.run")
	spanMetric("darshan.merge_s", "darshan.merge")
	spanMetric("darshan.encode_s", "darshan.encode")
	spanMetric("darshan.decode_s", "darshan.decode")
	spanMetric("darshan.stream_decode_s", "darshan.stream_decode")
	spanMetric("core.analyze_s", "core.analyze")
	spanMetric("core.export_s", "core.export")
	_, mergeMB := tr.durations("darshan.merge")
	values["darshan.merge_alloc_mb"] = median(mergeMB)
	values["darshan.log_mb"] = float64(len(b.ref.log)) / 1e6
	values["core.export_mb"] = exportMB
	values["trace.overhead_s"] = median(traced) - median(plain)
	tr.summary(os.Stdout)
	fmt.Printf("runs %d untraced %d traced %d failed %d\n", b.attempted, len(plain), len(traced), b.failed)
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{Value: values[m.name], Unit: m.unit}
		fmt.Printf("  %-34s %16.6f %s\n", m.name, values[m.name], m.unit)
	}
	return b.result(out), nil
}

// layerPass times each post-run layer on a traced run's results, outside
// the run's wall time: a cross-rank merge of its per-rank snapshots
// (distributed and service runs merge internally, so this is a second
// merge of the same inputs), the log encoder, both decoders, and core
// analysis and export of every snapshot. It returns the size of the
// export artifacts in bytes.
func layerPass(tr *tracer, o *outcome) (int, error) {
	_ = tr.timed("darshan.merge", func() error {
		darshan.Merge(o.snaps)
		return nil
	})
	var buf bytes.Buffer
	if err := tr.timed("darshan.encode", func() error {
		if o.merged != nil {
			return darshan.WriteMergedLog(&buf, o.merged)
		}
		return darshan.WriteSnapshotLog(&buf, o.snaps[0])
	}); err != nil {
		return 0, err
	}
	log := buf.Bytes()
	if err := tr.timed("darshan.decode", func() (err error) {
		if o.merged != nil {
			_, err = darshan.ReadMergedLog(bytes.NewReader(log))
		} else {
			_, err = darshan.ReadLog(bytes.NewReader(log))
		}
		return err
	}); err != nil {
		return 0, err
	}
	if err := tr.timed("darshan.stream_decode", func() error {
		_, _, err := drain(log)
		return err
	}); err != nil {
		return 0, err
	}
	analyses := make([]*core.SessionStats, len(o.snaps))
	_ = tr.timed("core.analyze", func() error {
		for i, s := range o.snaps {
			analyses[i] = core.AnalyzeSnapshot(s, o.sizeOf)
		}
		return nil
	})
	space, start := o.space, o.sessionStart
	if space == nil {
		space = &profiler.XSpace{}
	}
	var size int
	if err := tr.timed("core.export", func() error {
		for _, a := range analyses {
			art, err := core.Export(space, a, start)
			if err != nil {
				return err
			}
			size += len(art.ProfilePB) + len(art.TraceJSONGz)
		}
		return nil
	}); err != nil {
		return 0, err
	}
	return size, nil
}
