package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/tensorboard"
	"repro/internal/tf/profiler"
)

// CaseStudyResult is a profiled training epoch (Figs. 7a/7b/9/11a/11b).
type CaseStudyResult struct {
	Artifact string
	Label    string

	BandwidthMBps float64
	Opens         int64
	Reads         int64
	ZeroReads     int64
	SeqReads      int64
	FilesAccessed int
	InputBoundPct float64
	WallSec       float64

	ReadHist []int64

	Pages string // rendered TensorBoard pages
}

// Render implements Result.
func (r *CaseStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", r.Artifact, r.Label)
	b.WriteString(r.Pages)
	return b.String()
}

// ZeroReadFraction returns zero-length reads over all reads.
func (r *CaseStudyResult) ZeroReadFraction() float64 {
	return ratio(float64(r.ZeroReads), float64(r.Reads))
}

// SeqFraction returns sequential reads over all reads.
func (r *CaseStudyResult) SeqFraction() float64 { return ratio(float64(r.SeqReads), float64(r.Reads)) }

// Metrics implements Result.
func (r *CaseStudyResult) Metrics() map[string]float64 {
	return map[string]float64{
		"bandwidth_MBps":  r.BandwidthMBps,
		"opens":           float64(r.Opens),
		"reads":           float64(r.Reads),
		"zero_read_frac":  r.ZeroReadFraction(),
		"seq_read_frac":   r.SeqFraction(),
		"files":           float64(r.FilesAccessed),
		"input_bound_pct": r.InputBoundPct,
		"wall_seconds":    r.WallSec,
	}
}

// runCaseStudy executes a fully profiled epoch and assembles the result
// from the tf-Darshan analysis and the TensorBoard pages.
func runCaseStudy(artifact, label string, setup *trainSetup) (*CaseStudyResult, error) {
	setup.profileAll = true
	out, err := setup.run()
	if err != nil {
		return nil, err
	}
	a := setup.handle.Last
	if a == nil {
		return nil, fmt.Errorf("%s: no tf-darshan analysis collected", artifact)
	}
	pd := &tensorboard.ProfileData{
		Run:      artifact,
		History:  out.history,
		Analysis: a,
		Space:    out.tb.Space,
	}
	if out.tb.Session != nil {
		pd.SessionStartNs = out.tb.Session.StartNs
	}
	return &CaseStudyResult{
		Artifact:      artifact,
		Label:         label,
		BandwidthMBps: a.ReadBandwidthMBps(),
		Opens:         a.Opens,
		Reads:         a.Reads,
		ZeroReads:     a.ZeroReads,
		SeqReads:      a.SeqReads,
		FilesAccessed: a.FilesAccessed,
		InputBoundPct: out.history.InputBoundFraction() * 100,
		WallSec:       out.wallSeconds,
		ReadHist:      append([]int64(nil), a.ReadSizeHist.Counts...),
		Pages:         pd.OverviewText() + "\n" + pd.InputPipelineText(),
	}, nil
}

// caseStudy profiles one full epoch of w at the given thread count.
func caseStudy(c Config, artifact, label string, w *paperWorkload, threads int) (*CaseStudyResult, error) {
	setup, err := newTrainSetup(c, w, threads, true)
	if err != nil {
		return nil, err
	}
	return runCaseStudy(artifact, label, setup)
}

// Fig7a profiles the ImageNet epoch with one preprocessing thread (paper
// Fig. 7a): ~3 MB/s, opens ≈ files, reads ≈ 2x opens, ~50% zero-length,
// ~50% neither sequential nor consecutive.
func Fig7a(c Config) (*CaseStudyResult, error) {
	return caseStudy(c, "fig7a", "ImageNet training, 1 pipeline thread (Kebnekaise/Lustre)", imageNet, 1)
}

// Fig7b repeats with 28 threads (paper Fig. 7b): bandwidth rises to
// ~24 MB/s, roughly 8x.
func Fig7b(c Config) (*CaseStudyResult, error) {
	return caseStudy(c, "fig7b", "ImageNet training, 28 pipeline threads (Kebnekaise/Lustre)", imageNet, 28)
}

// TimelineResult is a TraceViewer extract (Figs. 8/10).
type TimelineResult struct {
	Artifact string
	Label    string
	Text     string
	// FilesShown timelines were rendered; ZeroTerminated counts those
	// whose final POSIX read has length zero (Fig. 8's observation).
	FilesShown     int
	ZeroTerminated int
	// Matched counts timelines whose POSIX segments fall inside a host
	// ReadFile op's span (Fig. 10's correspondence).
	Matched int
}

// Render implements Result.
func (r *TimelineResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", r.Artifact, r.Label)
	b.WriteString(r.Text)
	fmt.Fprintf(&b, "timelines=%d zero-terminated=%d readfile-matched=%d\n",
		r.FilesShown, r.ZeroTerminated, r.Matched)
	return b.String()
}

// Metrics implements Result.
func (r *TimelineResult) Metrics() map[string]float64 {
	return map[string]float64{
		"timelines":       float64(r.FilesShown),
		"zero_terminated": float64(r.ZeroTerminated),
		"matched":         float64(r.Matched),
	}
}

// analyzeTimelines inspects the tf-Darshan plane: per file, is the last
// read zero-length, and do the segments sit inside a host ReadFile event?
func analyzeTimelines(space *profiler.XSpace) (files, zeroTerminated, matched int) {
	darshanPlane := space.FindPlane(core.DarshanPlaneName)
	host := space.FindPlane(profiler.HostPlaneName)
	if darshanPlane == nil {
		return 0, 0, 0
	}
	type span struct{ start, end int64 }
	var readFiles []span
	if host != nil {
		for _, l := range host.Lines {
			for _, ev := range l.Events {
				if ev.Name == "ReadFile" {
					readFiles = append(readFiles, span{ev.StartNs, ev.StartNs + ev.DurNs})
				}
			}
		}
	}
	for _, line := range darshanPlane.Lines {
		if len(line.Events) == 0 {
			continue
		}
		files++
		last := line.Events[len(line.Events)-1]
		if v, ok := last.Arg("length"); ok && v == "0" {
			zeroTerminated++
		}
		segStart := line.Events[0].StartNs
		segEnd := last.StartNs + last.DurNs
		for _, rf := range readFiles {
			if rf.start <= segStart && segEnd <= rf.end {
				matched++
				break
			}
		}
	}
	return files, zeroTerminated, matched
}

// timelineExtract profiles the first two steps of a one-thread run of w,
// at no more than scale 0.05 (an extract, as in the paper), and renders
// its timelines.
func timelineExtract(c Config, artifact, label string, w *paperWorkload) (*TimelineResult, error) {
	c.Scale = min(c.Scale, 0.05)
	setup, err := newTrainSetup(c, w, 1, true)
	if err != nil {
		return nil, err
	}
	setup.steps = 2
	setup.profileAll = true
	out, err := setup.run()
	if err != nil {
		return nil, err
	}
	pd := &tensorboard.ProfileData{
		Run:            artifact,
		Analysis:       setup.handle.Last,
		Space:          out.tb.Space,
		SessionStartNs: out.tb.Session.StartNs,
	}
	text := pd.TraceViewerText(12, 8)
	files, zero, matched := analyzeTimelines(out.tb.Space)
	return &TimelineResult{
		Artifact: artifact, Label: label, Text: text,
		FilesShown: files, ZeroTerminated: zero, Matched: matched,
	}, nil
}

// Fig8 zooms into the ImageNet POSIX timelines (paper Fig. 8): every file
// read is followed by a zero-length read.
func Fig8(c Config) (*TimelineResult, error) {
	return timelineExtract(c, "fig8", "ImageNet TraceViewer extract: zero-length terminating reads", imageNet)
}
