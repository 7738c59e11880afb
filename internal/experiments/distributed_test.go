package experiments

import (
	"reflect"
	"testing"
)

func TestRanksSweepShape(t *testing.T) {
	res, err := RanksExperiment(Config{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want the {1,2,4,8} ladder", len(res.Rows))
	}
	byRanks := map[int]RanksRow{}
	for i, row := range res.Rows {
		if row.Ranks != DefaultRankSweep[i] {
			t.Fatalf("row %d ranks = %d", i, row.Ranks)
		}
		byRanks[row.Ranks] = row
	}
	r1, r2, r8 := byRanks[1], byRanks[2], byRanks[8]
	// Two ranks roughly double aggregate bandwidth and halve the epoch
	// (the shared MDS still has headroom at 2x4 in-flight opens).
	if r2.AggReadMBps < 1.4*r1.AggReadMBps {
		t.Fatalf("ranks=2 bandwidth %.1f, want >1.4x of %.1f", r2.AggReadMBps, r1.AggReadMBps)
	}
	if r2.EpochSec >= r1.EpochSec {
		t.Fatalf("ranks=2 epoch %.2fs did not beat ranks=1 %.2fs", r2.EpochSec, r1.EpochSec)
	}
	// Beyond that the shared MDS saturates: scaling is clearly sublinear.
	if r8.AggReadMBps > 4*r1.AggReadMBps {
		t.Fatalf("ranks=8 bandwidth %.1f scales past the shared-MDS bound (ranks=1 %.1f)", r8.AggReadMBps, r1.AggReadMBps)
	}
	if r8.EpochSec > r2.EpochSec*1.05 {
		t.Fatalf("ranks=8 epoch %.2fs regressed past ranks=2 %.2fs", r8.EpochSec, r2.EpochSec)
	}
	for _, row := range res.Rows {
		if row.MergedBytesRead == 0 {
			t.Fatalf("ranks=%d merged log empty: %+v", row.Ranks, row)
		}
		if len(row.PerRankBusySec) != row.Ranks {
			t.Fatalf("ranks=%d has %d busy samples", row.Ranks, len(row.PerRankBusySec))
		}
		if row.Ranks > 1 && row.MeanSyncSec <= 0 {
			t.Fatalf("ranks=%d recorded no synchronization time", row.Ranks)
		}
		if row.Ranks > 1 && row.StragglerSpreadPct <= 0 {
			t.Fatalf("ranks=%d straggler spread = %v", row.Ranks, row.StragglerSpreadPct)
		}
	}
}

func TestRanksExperimentDeterministic(t *testing.T) {
	// Two runs of the ranks=4 experiment produce bit-identical results
	// (rows are derived from the merged Darshan records, so identical rows
	// mean identical merged records).
	cfg := Config{Scale: 0.02, Ranks: 4}
	a, err := RanksExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RanksExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ranks=4 experiment not deterministic:\n%s\nvs\n%s", a.Render(), b.Render())
	}
	if len(a.Rows) != 1 || a.Rows[0].Ranks != 4 {
		t.Fatalf("-ranks pin broken: %+v", a.Rows)
	}
}
