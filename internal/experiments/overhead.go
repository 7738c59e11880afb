package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/platform"
)

// profMode selects the profiling configuration of an overhead run.
type profMode int

const (
	modeNone profMode = iota // no profiler
	modeTF                   // TensorFlow profiler only
	modeTFD                  // TensorFlow profiler + tf-Darshan tracer
)

// OverheadRow is one workload's bars in Fig. 5.
type OverheadRow struct {
	Workload    string
	Manual      bool // STREAM rows use manual restart-every-5 profiling
	BaselineSec float64
	TFSec       float64
	TFDSec      float64
}

// TFPct returns the TF-profiler-only overhead percentage.
func (r *OverheadRow) TFPct() float64 { return pct(r.TFSec, r.BaselineSec) }

// TFDPct returns the TF-profiler + tf-Darshan overhead percentage.
func (r *OverheadRow) TFDPct() float64 { return pct(r.TFDSec, r.BaselineSec) }

// pct returns t's change over base in percent.
func pct(t, base float64) float64 { return ratio(t-base, base) * 100 }

// OverheadResult is the Fig. 5 artifact.
type OverheadResult struct {
	Rows []OverheadRow
}

var overheadColumns = columns{
	{"Workload", -18, "%s"}, {"mode", 6, "%s"}, {"baseline(s)", 12, "%.2f"}, {"TF(s)", 12, "%.2f"},
	{"TF+tfd(s)", 12, "%.2f"}, {"tfd overhead", 12, " TF %+5.2f%% / tfd %+6.2f%%"},
}

// Render implements Result.
func (r *OverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 5: training/streaming time change vs no profiler (automatic callback for\n")
	b.WriteString("use-cases, manual restart-every-5-steps for STREAM)\n")
	b.WriteString(overheadColumns.header())
	for _, row := range r.Rows {
		mode := "auto"
		if row.Manual {
			mode = "manual"
		}
		b.WriteString(overheadColumns.row(row.Workload, mode, row.BaselineSec, row.TFSec, row.TFDSec, row.TFPct(), row.TFDPct()))
	}
	return b.String()
}

// Metrics implements Result.
func (r *OverheadResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for _, row := range r.Rows {
		m[row.Workload+"_tf_pct"] = row.TFPct()
		m[row.Workload+"_tfd_pct"] = row.TFDPct()
	}
	return m
}

// overheadWorkloads are Fig. 5's bar groups in paper order, under the
// figure's names for them.
var overheadWorkloads = []struct {
	name string
	w    *paperWorkload
}{{"ImageNet", imageNet}, {"Malware", kaggleMalware}, {"STREAM(ImageNet)", streamImageNet}, {"STREAM(Malware)", streamMalware}}

// overheadModes are each bar group's three bars.
var overheadModes = []profMode{modeNone, modeTF, modeTFD}

// overheadCell is one bar: a workload under one profiling mode.
type overheadCell struct {
	w    *paperWorkload
	mode profMode
}

// runOverheadCell runs one bar and returns its virtual wall time. The
// use-cases train 10 steps of batch 128 under the automatic TensorBoard
// callback; STREAM keeps its Table II steps and profiles manually,
// restarted every five steps. tf-Darshan is registered in modeTFD only
// (the TF profiler's host tracer is always present once any profiling
// starts; modeNone opens no session at all).
func runOverheadCell(c Config, cell overheadCell) (float64, error) {
	setup, err := newTrainSetup(c, cell.w, cell.w.threads[0], cell.mode == modeTFD)
	if err != nil {
		return 0, err
	}
	setup.batch = 128
	switch {
	case cell.w.model != nil:
		setup.steps = overheadSteps(len(setup.paths), setup.batch)
		setup.profileAll = cell.mode != modeNone
	case cell.mode != modeNone:
		setup.manualEvery = 5
	}
	out, err := setup.run()
	if err != nil {
		return 0, fmt.Errorf("fig5 %s mode %d: %w", cell.w.name, cell.mode, err)
	}
	return out.wallSeconds, nil
}

// overheadSteps matches the paper's 10-step overhead runs, capped by the
// scaled dataset size.
func overheadSteps(files, batch int) int {
	if n := files / batch; n >= 1 {
		return min(n, 10)
	}
	return 10
}

// Fig5 quantifies profiling overhead for the four workloads under the
// three configurations (paper Fig. 5). All workload×mode cells are
// independent machines, so they sweep concurrently under Config.Parallel.
func Fig5(c Config) (*OverheadResult, error) {
	var cells []overheadCell
	for _, o := range overheadWorkloads {
		for _, mode := range overheadModes {
			cells = append(cells, overheadCell{o.w, mode})
		}
	}
	walls, err := sweep(c, cells, runOverheadCell)
	if err != nil {
		return nil, err
	}
	res := &OverheadResult{}
	for sec := range slices.Chunk(walls, len(overheadModes)) {
		o := overheadWorkloads[len(res.Rows)]
		res.Rows = append(res.Rows, OverheadRow{
			Workload: o.name, Manual: o.w.model == nil, BaselineSec: sec[0], TFSec: sec[1], TFDSec: sec[2],
		})
	}
	return res, nil
}

// Fig6 result: checkpoint activity captured on the STDIO layer.
type CheckpointResult struct {
	Checkpoints   int
	TotalFwrites  int64
	StdioFwrites  int64 // as seen by Darshan's STDIO module
	StdioMB       float64
	PosixWrites   int64 // must stay 0: stdio flushes bypass the PLT
	FwritesPerCkp float64
	Panel         string
}

// Render implements Result.
func (r *CheckpointResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 6: tf-Darshan capturing checkpoint write activity on the STDIO layer\n")
	b.WriteString(kvTable([][2]string{
		{"checkpoints written", fmt.Sprint(r.Checkpoints)},
		{"fwrite calls (writer)", fmt.Sprint(r.TotalFwrites)},
		{"fwrite calls (Darshan STDIO)", fmt.Sprint(r.StdioFwrites)},
		{"STDIO bytes written", fmt.Sprintf("%.1f MB", r.StdioMB)},
		{"POSIX writes observed", fmt.Sprint(r.PosixWrites)},
		{"fwrites per checkpoint", fmt.Sprintf("%.1f", r.FwritesPerCkp)},
	}))
	b.WriteString(r.Panel)
	return b.String()
}

// Metrics implements Result.
func (r *CheckpointResult) Metrics() map[string]float64 {
	return map[string]float64{
		"checkpoints":     float64(r.Checkpoints),
		"stdio_fwrites":   float64(r.StdioFwrites),
		"fwrites_per_ckp": r.FwritesPerCkp,
		"posix_writes":    float64(r.PosixWrites),
	}
}

// Fig6 trains the image-classification use-case for 10 steps with a
// checkpoint after every step, all checkpoints kept; Darshan's STDIO
// module captures the ~1,400 fwrite calls (paper Fig. 6).
func Fig6(c Config) (*CheckpointResult, error) {
	setup, err := newTrainSetup(c, imageNet, 2, true)
	if err != nil {
		return nil, err
	}
	setup.steps = overheadSteps(len(setup.paths), setup.batch)
	setup.profileAll = true
	setup.checkpointEvery, setup.ckptDir = 1, platform.KebnekaiseLustre+"/ckpt"
	out, err := setup.run()
	if err != nil {
		return nil, err
	}
	a := setup.handle.Last
	var panel string
	if a != nil {
		panel = "\n[tf-Darshan] STDIO layer\n" + kvTable([][2]string{
			{"fopens", fmt.Sprint(a.StdioOpens)},
			{"fwrites", fmt.Sprint(a.StdioWrites)},
			{"bytes written", fmt.Sprintf("%.1f MB", float64(a.StdioBytesWritten)/1e6)},
		})
	}
	res := &CheckpointResult{
		Checkpoints:  len(out.ckpt.Results),
		TotalFwrites: out.ckpt.TotalFwrites(),
		Panel:        panel,
	}
	if a != nil {
		res.StdioFwrites = a.StdioWrites
		res.StdioMB = float64(a.StdioBytesWritten) / 1e6
		res.PosixWrites = a.Writes
	}
	res.FwritesPerCkp = ratio(float64(res.StdioFwrites), float64(res.Checkpoints))
	return res, nil
}
