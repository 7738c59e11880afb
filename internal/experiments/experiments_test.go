package experiments

import (
	"math"
	"strings"
	"testing"
)

// The experiments tests assert the paper's qualitative findings (who wins,
// by what shape) at laptop scale; EXPERIMENTS.md records the quantitative
// paper-vs-measured comparison at full scale.

func TestTable1(t *testing.T) {
	res, err := Table1(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.VerifiedRows < 3 {
		t.Fatalf("verified = %d", res.VerifiedRows)
	}
	out := res.Render()
	for _, want := range []string{"Runtime start/stop", "In-situ", "TensorBoard web"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q", want)
		}
	}
}

func TestTable2DatasetShapes(t *testing.T) {
	res, err := Table2(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Table2Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	// Median sizes must match the paper's characteristics (Table II):
	// ImageNet ~88KB, malware ~4MB, stream subsets ~76KB and several MB.
	in := byName["ImageNet"]
	if in.MedianSize < 60*1024 || in.MedianSize > 120*1024 {
		t.Fatalf("imagenet median = %d", in.MedianSize)
	}
	mw := byName["Kaggle BIG 2015"]
	if mw.MedianSize < 3<<20 || mw.MedianSize > 5<<20 {
		t.Fatalf("malware median = %d", mw.MedianSize)
	}
	si := byName["STREAM(ImageNet)"]
	if si.MedianSize < 50*1024 || si.MedianSize > 110*1024 {
		t.Fatalf("stream imagenet median = %d", si.MedianSize)
	}
	// Malware files are ~50x larger than ImageNet files.
	if mw.MedianSize < in.MedianSize*20 {
		t.Fatal("malware/imagenet size ratio lost")
	}
}

func TestFig3DstatAgreement(t *testing.T) {
	res, err := Fig3(Config{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// tf-Darshan derives bandwidth at high accuracy vs dstat (paper §IV-B).
	if e := absErr(res.TfdMean, res.DstatMean); e > 0.15 {
		t.Fatalf("tfd=%v dstat=%v err=%v", res.TfdMean, res.DstatMean, e)
	}
	if res.Windows < 2 {
		t.Fatalf("windows = %d", res.Windows)
	}
}

func TestFig4MalwareStreamFasterThanImageNetStream(t *testing.T) {
	cfg := Config{Scale: 0.1}
	f3, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// "the bandwidth in our malware use-case is approximately 10x higher
	// than in ImageNet" (paper §IV-B).
	ratio := f4.TfdMean / f3.TfdMean
	if ratio < 5 || ratio > 20 {
		t.Fatalf("malware/imagenet stream ratio = %.1f, want ~10", ratio)
	}
	if e := absErr(f4.TfdMean, f4.DstatMean); e > 0.15 {
		t.Fatalf("fig4 agreement err = %v", e)
	}
}

func TestFig5OverheadShape(t *testing.T) {
	res, err := Fig5(Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// tf-Darshan always costs at least as much as TF alone, and
		// the baseline is fastest.
		if row.TFDSec < row.TFSec || row.TFSec < row.BaselineSec {
			t.Fatalf("%s ordering broken: %+v", row.Workload, row)
		}
		if row.TFDPct() < 0 || row.TFDPct() > 40 {
			t.Fatalf("%s tfd overhead = %.2f%%", row.Workload, row.TFDPct())
		}
	}
	// Automatic full-export mode costs more than manual extraction
	// (paper: 10-20% vs 0.6-7%).
	auto := res.Rows[0].TFDPct() // ImageNet
	manual := res.Rows[3].TFDPct()
	if auto <= manual {
		t.Fatalf("auto %.2f%% should exceed manual %.2f%%", auto, manual)
	}
}

func TestFig6CheckpointCapturedOnSTDIO(t *testing.T) {
	res, err := Fig6(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints != 10 {
		t.Fatalf("checkpoints = %d", res.Checkpoints)
	}
	// ~1,400 fwrite calls (paper Fig. 6), all on the STDIO layer.
	if res.StdioFwrites < 1200 || res.StdioFwrites > 1600 {
		t.Fatalf("stdio fwrites = %d, want ~1400", res.StdioFwrites)
	}
	if res.StdioFwrites != res.TotalFwrites {
		t.Fatalf("darshan saw %d fwrites, writer issued %d", res.StdioFwrites, res.TotalFwrites)
	}
	if res.PosixWrites != 0 {
		t.Fatalf("posix writes = %d, want 0 (stdio flushes bypass the PLT)", res.PosixWrites)
	}
}

func TestFig7ImageNetFindings(t *testing.T) {
	cfg := testConfig()
	a, err := Fig7a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 7a: reads = 2x opens, 50% zero-length, 50% neither
	// sequential nor consecutive, heavily input bound.
	if a.Reads != 2*a.Opens {
		t.Fatalf("reads=%d opens=%d", a.Reads, a.Opens)
	}
	if f := a.ZeroReadFraction(); f < 0.49 || f > 0.51 {
		t.Fatalf("zero read fraction = %v", f)
	}
	if f := a.SeqFraction(); f < 0.49 || f > 0.51 {
		t.Fatalf("seq fraction = %v", f)
	}
	if a.InputBoundPct < 90 {
		t.Fatalf("input bound = %.1f%%, want >90", a.InputBoundPct)
	}
	// Half the reads in the 0-100 bucket (zero reads).
	if a.ReadHist[0] != a.ZeroReads {
		t.Fatalf("hist[0]=%d zero=%d", a.ReadHist[0], a.ZeroReads)
	}

	b, err := Fig7b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 7b: ~8x bandwidth from threading (3 -> 24 MB/s).
	ratio := b.BandwidthMBps / a.BandwidthMBps
	if ratio < 5 || ratio > 12 {
		t.Fatalf("threading speedup = %.2fx, want ~8x", ratio)
	}
}

func TestFig8ZeroTerminatedTimelines(t *testing.T) {
	res, err := Fig8(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesShown == 0 {
		t.Fatal("no timelines")
	}
	if res.ZeroTerminated != res.FilesShown {
		t.Fatalf("zero-terminated %d of %d", res.ZeroTerminated, res.FilesShown)
	}
	if !strings.Contains(res.Text, "length=0") {
		t.Fatal("rendered timelines missing zero-length reads")
	}
}

func TestFig9MalwareFindings(t *testing.T) {
	res, err := Fig9(Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 9: reads/opens ~5-6 (1MiB segments + zero read), the
	// majority sequential+consecutive, few zero reads, bandwidth around
	// two orders above ImageNet's.
	perFile := float64(res.Reads) / float64(res.Opens)
	if perFile < 4 || perFile > 8 {
		t.Fatalf("reads per file = %.2f", perFile)
	}
	if f := res.SeqFraction(); f < 0.7 {
		t.Fatalf("seq fraction = %v, want majority", f)
	}
	if f := res.ZeroReadFraction(); f > 0.3 {
		t.Fatalf("zero fraction = %v, want small", f)
	}
	if res.BandwidthMBps < 60 || res.BandwidthMBps > 130 {
		t.Fatalf("bandwidth = %.1f, want ~94", res.BandwidthMBps)
	}
	// Majority of reads in the 100K-1M bucket (index 4).
	var total int64
	for _, c := range res.ReadHist {
		total += c
	}
	if res.ReadHist[4]*2 < total {
		t.Fatalf("read hist = %v, want majority in 100K-1M", res.ReadHist)
	}
	if res.InputBoundPct < 95 {
		t.Fatalf("input bound = %.1f%%, want ~99", res.InputBoundPct)
	}
}

func TestFig10ReadFileCorrespondence(t *testing.T) {
	res, err := Fig10(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesShown == 0 {
		t.Fatal("no timelines")
	}
	// Nearly all POSIX segment groups sit inside a host ReadFile span
	// (boundary files may straddle the profiling window).
	if float64(res.Matched) < 0.9*float64(res.FilesShown) {
		t.Fatalf("matched %d of %d", res.Matched, res.FilesShown)
	}
}

func TestFig11ThreadingHurtsAndStagingHelps(t *testing.T) {
	cfg := Config{Scale: 0.05}
	base, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	threaded, err := Fig11a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 11a: 16 threads DROP bandwidth (94 -> 77 MB/s).
	if threaded.BandwidthMBps >= base.BandwidthMBps {
		t.Fatalf("threading should hurt: %.1f vs %.1f", threaded.BandwidthMBps, base.BandwidthMBps)
	}
	drop := threaded.BandwidthMBps / base.BandwidthMBps
	if drop < 0.6 || drop > 0.95 {
		t.Fatalf("drop ratio = %.2f, want ~0.82", drop)
	}

	staged, err := Fig11b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 11b: ~+19% from staging ~8% of the bytes (~40% of files).
	if staged.GainPct() < 8 || staged.GainPct() > 35 {
		t.Fatalf("staging gain = %.1f%%, want ~19%%", staged.GainPct())
	}
	if f := staged.Advice.FracBytes(); f < 0.03 || f > 0.15 {
		t.Fatalf("staged byte fraction = %v, want ~0.08", f)
	}
	if f := staged.Advice.FracFiles(); f < 0.25 || f > 0.55 {
		t.Fatalf("staged file fraction = %v, want ~0.40", f)
	}
	if staged.Advice.Threshold != 2<<20 {
		t.Fatalf("threshold = %d, want 2MB", staged.Advice.Threshold)
	}
}

func TestFig12Ordering(t *testing.T) {
	res, err := Fig12(Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	byName := map[string]Fig12Run{}
	for _, r := range res.Runs {
		byName[r.Name] = r
	}
	naive := byName["HDD (Naive)"]
	threaded := byName["HDD (16 Threads)"]
	staged := byName["HDD+Optane"]
	// Paper Fig. 12: optimized finishes first with the highest bandwidth;
	// the threaded run finishes last.
	if !(staged.EndOfFit < naive.EndOfFit && naive.EndOfFit < threaded.EndOfFit) {
		t.Fatalf("end times: staged=%.1f naive=%.1f threaded=%.1f",
			staged.EndOfFit, naive.EndOfFit, threaded.EndOfFit)
	}
	if !(staged.MeanMBps > naive.MeanMBps && naive.MeanMBps > threaded.MeanMBps) {
		t.Fatalf("bandwidths: staged=%.1f naive=%.1f threaded=%.1f",
			staged.MeanMBps, naive.MeanMBps, threaded.MeanMBps)
	}
}

func TestRegistryCoversAllArtifacts(t *testing.T) {
	want := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6",
		"fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11a", "fig11b", "fig12", "ranks", "tune", "prefetch", "recovery", "dataservice"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d entries", len(all))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := Find(id); !ok {
			t.Fatalf("Find(%s) failed", id)
		}
	}
	if _, ok := Find("fig99"); ok {
		t.Fatal("Find invented an experiment")
	}
}

func TestDeterminism(t *testing.T) {
	// Same config => identical figures, bit for bit.
	cfg := Config{Scale: 0.02}
	a, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BandwidthMBps != b.BandwidthMBps || a.Reads != b.Reads || a.WallSec != b.WallSec {
		t.Fatalf("non-deterministic: %+v vs %+v", a.Metrics(), b.Metrics())
	}
}

// testConfig runs the suite at a laptop-test scale.
func testConfig() Config { return Config{Scale: 0.02} }

// absErr quantifies dstat/tf-Darshan agreement.
func absErr(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / b
}
