package darshan

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// syntheticSnapshots builds two rank snapshots sharing one file and each
// owning a private one, with DXT segments that interleave in time.
func syntheticSnapshots() []*Snapshot {
	mkPosix := func(id uint64, rank int, reads, bytes, maxByte int64, rstart, rend float64) PosixRecord {
		r := PosixRecord{ID: id, Rank: rank}
		r.Counters[POSIX_OPENS] = 1
		r.Counters[POSIX_READS] = reads
		r.Counters[POSIX_BYTES_READ] = bytes
		r.Counters[POSIX_MAX_BYTE_READ] = maxByte
		r.Counters[POSIX_SIZE_READ_100K_1M] = reads
		r.Counters[POSIX_ACCESS1_ACCESS] = bytes / reads
		r.Counters[POSIX_ACCESS1_COUNT] = reads
		r.FCounters[POSIX_F_READ_START_TIMESTAMP] = rstart
		r.FCounters[POSIX_F_READ_END_TIMESTAMP] = rend
		r.FCounters[POSIX_F_READ_TIME] = rend - rstart
		r.FCounters[POSIX_F_MAX_READ_TIME] = (rend - rstart) / 2
		return r
	}
	seg := func(off, length int64, start, end float64, tid int) Segment {
		return Segment{Offset: off, Length: length, Start: start, End: end, TID: tid}
	}
	rank0 := &Snapshot{
		Time:  10,
		Posix: []PosixRecord{mkPosix(1, 0, 4, 400_000, 99_999, 0.5, 4.0), mkPosix(7, 0, 2, 200_000, 99_999, 1.0, 2.0)},
		Stdio: []StdioRecord{func() StdioRecord {
			r := StdioRecord{ID: 9, Rank: 0}
			r.Counters[STDIO_WRITES] = 3
			r.Counters[STDIO_BYTES_WRITTEN] = 300
			r.Counters[STDIO_MAX_BYTE_WRITTEN] = 120
			return r
		}()},
		DXT: []DXTRecord{{
			ID:       1,
			ReadSegs: []Segment{seg(0, 100_000, 0.5, 0.7, 1), seg(100_000, 100_000, 2.0, 2.2, 1)},
		}},
		Names: map[uint64]string{1: "/pfs/shared", 7: "/pfs/only0", 9: "/pfs/ckpt"},
	}
	rank1 := &Snapshot{
		Time:  12,
		Posix: []PosixRecord{mkPosix(1, 1, 6, 600_000, 149_999, 0.25, 6.0), mkPosix(8, 1, 2, 200_000, 99_999, 3.0, 4.0)},
		Stdio: []StdioRecord{func() StdioRecord {
			r := StdioRecord{ID: 9, Rank: 1}
			r.Counters[STDIO_WRITES] = 5
			r.Counters[STDIO_BYTES_WRITTEN] = 500
			r.Counters[STDIO_MAX_BYTE_WRITTEN] = 90
			return r
		}()},
		DXT: []DXTRecord{{
			ID:       1,
			ReadSegs: []Segment{seg(0, 150_000, 0.25, 0.45, 1), seg(150_000, 150_000, 1.0, 1.3, 1)},
		}, {
			ID:        8,
			WriteSegs: []Segment{seg(0, 200_000, 2.0, 2.1, 2)},
		}},
		Names: map[uint64]string{1: "/pfs/shared", 8: "/pfs/only1"},
	}
	return []*Snapshot{rank0, rank1}
}

func TestMergeCountersEqualPerRankSums(t *testing.T) {
	snaps := syntheticSnapshots()
	m := Merge(snaps)
	if m.NProcs != 2 {
		t.Fatalf("nprocs = %d", m.NProcs)
	}
	for c := PosixCounter(0); c < PosixNumCounters; c++ {
		if !PosixCounterAdditive(c) {
			continue
		}
		want := snaps[0].TotalPosix(c) + snaps[1].TotalPosix(c)
		if got := m.TotalPosix(c); got != want {
			t.Errorf("%v: merged %d, per-rank sum %d", c, got, want)
		}
	}
	for c := StdioCounter(0); c < StdioNumCounters; c++ {
		if !StdioCounterAdditive(c) {
			continue
		}
		want := snaps[0].TotalStdio(c) + snaps[1].TotalStdio(c)
		if got := m.TotalStdio(c); got != want {
			t.Errorf("%v: merged %d, per-rank sum %d", c, got, want)
		}
	}
}

func TestMergeWatermarksAndTimestamps(t *testing.T) {
	m := Merge(syntheticSnapshots())
	// Shared files get the -1 sentinel; single-rank files keep their
	// owning rank (Darshan's shared-record convention).
	wantRank := map[uint64]int{1: MergedRank, 7: 0, 8: 1}
	var shared *PosixRecord
	for i := range m.Posix {
		if m.Posix[i].ID == 1 {
			shared = &m.Posix[i]
		}
		if got := m.Posix[i].Rank; got != wantRank[m.Posix[i].ID] {
			t.Errorf("record %d rank = %d, want %d", m.Posix[i].ID, got, wantRank[m.Posix[i].ID])
		}
	}
	if shared == nil {
		t.Fatal("shared record missing")
	}
	if got := shared.Counters[POSIX_MAX_BYTE_READ]; got != 149_999 {
		t.Errorf("max byte read = %d, want max across ranks", got)
	}
	if got := shared.FCounters[POSIX_F_READ_START_TIMESTAMP]; got != 0.25 {
		t.Errorf("read start = %v, want earliest nonzero", got)
	}
	if got := shared.FCounters[POSIX_F_READ_END_TIMESTAMP]; got != 6.0 {
		t.Errorf("read end = %v, want latest", got)
	}
	if got := shared.FCounters[POSIX_F_READ_TIME]; got != 3.5+5.75 {
		t.Errorf("read time = %v, want per-rank sum", got)
	}
	// Re-ranked access table: rank1's 100_000-byte access (6 ops) beats
	// rank0's (4 ops); both are the same size so they combine to 10.
	if shared.Counters[POSIX_ACCESS1_ACCESS] != 100_000 || shared.Counters[POSIX_ACCESS1_COUNT] != 10 {
		t.Errorf("access1 = %d x %d, want 100000 x 10",
			shared.Counters[POSIX_ACCESS1_ACCESS], shared.Counters[POSIX_ACCESS1_COUNT])
	}
	var ckpt *StdioRecord
	for i := range m.Stdio {
		if m.Stdio[i].ID == 9 {
			ckpt = &m.Stdio[i]
		}
	}
	if ckpt == nil || ckpt.Counters[STDIO_MAX_BYTE_WRITTEN] != 120 {
		t.Errorf("stdio watermark merge wrong: %+v", ckpt)
	}
	if ckpt != nil && ckpt.Rank != MergedRank {
		t.Errorf("stdio shared record rank = %d, want %d", ckpt.Rank, MergedRank)
	}
	if m.JobEnd != 12 {
		t.Errorf("job end = %v", m.JobEnd)
	}
}

func TestMergeTimelineGloballyOrderedWithRankAttribution(t *testing.T) {
	m := Merge(syntheticSnapshots())
	tl := slices.Collect(m.Segments())
	if len(tl) != 5 || m.NumSegments() != 5 {
		t.Fatalf("timeline has %d segments (NumSegments %d), want 5", len(tl), m.NumSegments())
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Start < tl[i-1].Start {
			t.Fatalf("timeline out of order at %d: %v after %v", i, tl[i].Start, tl[i-1].Start)
		}
	}
	// The first segment is rank 1's early read; ranks interleave.
	if tl[0].Rank != 1 || tl[0].Start != 0.25 {
		t.Fatalf("timeline[0] = rank %d @ %v", tl[0].Rank, tl[0].Start)
	}
	ranksSeen := map[int]bool{}
	for _, s := range tl {
		ranksSeen[s.Rank] = true
	}
	if !ranksSeen[0] || !ranksSeen[1] {
		t.Fatalf("timeline lost rank attribution: %v", ranksSeen)
	}
	// The write segment keeps its direction.
	var writes int
	for _, s := range tl {
		if s.Write {
			writes++
			if s.ID != 8 || s.Rank != 1 {
				t.Fatalf("write segment misattributed: %+v", s)
			}
		}
	}
	if writes != 1 {
		t.Fatalf("writes in timeline = %d", writes)
	}
}

// tieSnapshots builds two ranks whose combined access table is all count
// ties: the merged ACCESS1..4 ranking is decided purely by the explicit
// tie-break, and a fifth entry must be the one dropped.
func tieSnapshots() []*Snapshot {
	mk := func(rank int, sizes ...int64) *Snapshot {
		rec := PosixRecord{ID: 5, Rank: rank}
		for k, s := range sizes {
			rec.Counters[POSIX_ACCESS1_ACCESS+PosixCounter(k)] = s
			rec.Counters[POSIX_ACCESS1_COUNT+PosixCounter(k)] = 2
		}
		return &Snapshot{
			Time:  1,
			Posix: []PosixRecord{rec},
			Names: map[uint64]string{5: "/pfs/tied"},
		}
	}
	// Five distinct sizes across the ranks, every one with count 2.
	return []*Snapshot{mk(0, 4096, 100, 9000), mk(1, 512, 70000)}
}

// TestMergeAccessTieBreakExplicit pins the re-ranking order of the merged
// access table: count descending, count ties broken by ascending size
// (accessEntryLess). With all counts tied, ACCESS1..4 must be the four
// smallest sizes in ascending order, independent of which rank
// contributed them or any map iteration order.
func TestMergeAccessTieBreakExplicit(t *testing.T) {
	m := Merge(tieSnapshots())
	if len(m.Posix) != 1 {
		t.Fatalf("records = %d", len(m.Posix))
	}
	rec := &m.Posix[0]
	wantSizes := []int64{100, 512, 4096, 9000} // 70000 drops: same count, largest size
	for k, want := range wantSizes {
		if got := rec.Counters[POSIX_ACCESS1_ACCESS+PosixCounter(k)]; got != want {
			t.Errorf("ACCESS%d size = %d, want %d", k+1, got, want)
		}
		if got := rec.Counters[POSIX_ACCESS1_COUNT+PosixCounter(k)]; got != 2 {
			t.Errorf("ACCESS%d count = %d, want 2", k+1, got)
		}
	}
}

// TestMergedLogByteStableAcrossMapOrder: merging the same inputs many
// times (each merge iterating Go's randomized map order differently) must
// serialize to the same bytes every time — the property the explicit
// tie-break exists to guarantee.
func TestMergedLogByteStableAcrossMapOrder(t *testing.T) {
	serialize := func(snaps []*Snapshot) []byte {
		var buf bytes.Buffer
		if err := WriteMergedLog(&buf, Merge(snaps)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, mk := range []func() []*Snapshot{tieSnapshots, syntheticSnapshots} {
		want := serialize(mk())
		for i := 0; i < 32; i++ {
			if got := serialize(mk()); !bytes.Equal(got, want) {
				t.Fatalf("merged log bytes unstable at iteration %d", i)
			}
		}
	}
}

func TestMergeDeterministic(t *testing.T) {
	a := Merge(syntheticSnapshots())
	b := Merge(syntheticSnapshots())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("merge is not deterministic")
	}
	// Record order is first-appearance (rank-major), independent of map
	// iteration order.
	var ids []uint64
	for i := range a.Posix {
		ids = append(ids, a.Posix[i].ID)
	}
	if !reflect.DeepEqual(ids, []uint64{1, 7, 8}) {
		t.Fatalf("posix record order = %v", ids)
	}
	// Name union covers every record.
	for _, id := range ids {
		if _, ok := a.Names[id]; !ok {
			t.Fatalf("name table missing id %d", id)
		}
	}
	sorted := slices.IsSortedFunc(slices.Collect(a.Segments()), func(x, y MergedSegment) int {
		return cmp.Compare(x.Start, y.Start)
	})
	if !sorted {
		t.Fatal("timeline not sorted")
	}
}

// eagerTimeline is the reference order Segments must reproduce: every
// segment copied rank by rank, record by record, reads before writes, then
// stable-sorted by the reflection comparator the merger used to apply.
func eagerTimeline(perRank []*Snapshot) []MergedSegment {
	var tl []MergedSegment
	for rank, snap := range perRank {
		if snap == nil {
			continue
		}
		for i := range snap.DXT {
			rec := &snap.DXT[i]
			for _, seg := range rec.ReadSegs {
				tl = append(tl, MergedSegment{Segment: seg, Rank: rank, ID: rec.ID})
			}
			for _, seg := range rec.WriteSegs {
				tl = append(tl, MergedSegment{Segment: seg, Rank: rank, ID: rec.ID, Write: true})
			}
		}
	}
	sort.SliceStable(tl, func(i, j int) bool {
		a, b := &tl[i], &tl[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return !a.Write && b.Write
	})
	return tl
}

// randomTieSnapshots draws DXT records whose segments collide heavily:
// start and end times come from a few quarter-second slots and offsets
// from a few blocks, so equal keys occur within a record, across records
// and across ranks. Lengths and thread ids stay distinct, which makes any
// break of the stable order visible.
func randomTieSnapshots(seed int64) []*Snapshot {
	rng := rand.New(rand.NewSource(seed))
	var tid int
	draw := func(n int) []Segment {
		segs := make([]Segment, n)
		for i := range segs {
			start := float64(rng.Intn(6)) * 0.25
			tid++
			segs[i] = Segment{
				Offset: int64(rng.Intn(3)) * 4096,
				Length: int64(tid),
				Start:  start,
				End:    start + float64(rng.Intn(2))*0.25,
				TID:    tid,
			}
		}
		return segs
	}
	snaps := make([]*Snapshot, 1+rng.Intn(4))
	for r := range snaps {
		snap := &Snapshot{Time: 2}
		for id := uint64(1); id <= uint64(1+rng.Intn(3)); id++ {
			snap.DXT = append(snap.DXT, DXTRecord{ID: id, ReadSegs: draw(rng.Intn(12)), WriteSegs: draw(rng.Intn(6))})
		}
		snaps[r] = snap
	}
	return snaps
}

// TestSegmentsMatchEagerOrder is the order oracle: on every input shape
// that stresses the tie-breaks, the on-demand timeline equals the eager
// copy-and-stable-sort reference element for element.
func TestSegmentsMatchEagerOrder(t *testing.T) {
	seg := func(off, length int64, start, end float64, tid int) Segment {
		return Segment{Offset: off, Length: length, Start: start, End: end, TID: tid}
	}
	cases := map[string][]*Snapshot{
		"synthetic": syntheticSnapshots(),
		// A read and a write of the same block at the same instant: the
		// direction alone orders them, read first.
		"same-offset read/write": {{DXT: []DXTRecord{{
			ID:        3,
			WriteSegs: []Segment{seg(0, 10, 1, 2, 1), seg(10, 10, 1, 2, 1)},
			ReadSegs:  []Segment{seg(10, 20, 1, 2, 2), seg(0, 20, 1, 2, 2)},
		}}}},
		// Concurrent threads append to one record out of start order.
		"out-of-order appends": {{DXT: []DXTRecord{{
			ID:       4,
			ReadSegs: []Segment{seg(0, 1, 3, 4, 1), seg(1, 1, 0.5, 1, 2), seg(2, 1, 2, 5, 3), seg(3, 1, 0.5, 1, 4), seg(4, 1, 0.5, 0.75, 5)},
		}}}, {DXT: []DXTRecord{{
			ID:       4,
			ReadSegs: []Segment{seg(0, 1, 2, 5, 6), seg(1, 1, 0.5, 1, 7)},
		}}}},
		// Nil ranks keep their slot: later snapshots stay attributed to
		// their index, and dropped segments count without appearing.
		"nil ranks and drops": {nil, {DXT: []DXTRecord{{
			ID: 5, ReadSegs: []Segment{seg(0, 1, 1, 2, 1)}, Dropped: 7,
		}}}, nil, {DXT: []DXTRecord{{
			ID: 5, ReadSegs: []Segment{seg(0, 1, 1, 2, 1)}, WriteSegs: []Segment{seg(0, 1, 0, 1, 2)}, Dropped: 2,
		}}}},
		"empty": nil,
	}
	for seed := int64(1); seed <= 64; seed++ {
		cases[fmt.Sprintf("random seed %d", seed)] = randomTieSnapshots(seed)
	}
	for name, snaps := range cases {
		m := Merge(snaps)
		got := slices.Collect(m.Segments())
		want := eagerTimeline(snaps)
		if len(got) != len(want) || m.NumSegments() != len(want) {
			t.Fatalf("%s: %d segments (NumSegments %d), reference %d", name, len(got), m.NumSegments(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: segment %d = %+v, reference %+v", name, i, got[i], want[i])
			}
		}
		// A second read yields the same order: nothing is consumed.
		if again := slices.Collect(m.Segments()); !slices.Equal(again, got) {
			t.Fatalf("%s: second Segments call diverged", name)
		}
	}
	m := Merge(cases["nil ranks and drops"])
	if m.NProcs != 2 || m.DroppedSegments != 9 {
		t.Fatalf("nil ranks: nprocs %d dropped %d, want 2 and 9", m.NProcs, m.DroppedSegments)
	}
	for s := range m.Segments() {
		if s.Rank != 1 && s.Rank != 3 {
			t.Fatalf("segment attributed to rank %d, want its snapshot index", s.Rank)
		}
	}
}
