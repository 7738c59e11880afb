package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/darshan"
	"repro/internal/distributed"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/tf/tfdata"
	"repro/internal/vfs"
)

// The recovery experiment kills one rank three quarters through the epoch
// and recovers the job three ways — rollback-rank0 (every rank re-reads
// rank 0's last checkpoint at once: the shared-file restore storm),
// rollback-allranks (every rank restores its own copy) and elastic (the
// survivors re-shard the victim's remaining work while the reborn rank
// restores alone) — under a ladder of injected transient faults, against
// a no-failure baseline. Every run arms the bounded-retry policy, and the
// cluster traces stdio ops as DXT segments so checkpoint writes and
// restore reads (the STDIO layer, Fig. 6) appear on the merged timeline.
// Every invariant is enforced as an error.

// recoveryRebootDelay is the simulated node death-to-rejoin time.
const recoveryRebootDelay = 2 * sim.Second

// recoveryCkptDir is the checkpoint directory on the shared Lustre mount.
const recoveryCkptDir = platform.KebnekaiseLustre + "/ckpt"

// recoveryProtocol is one way of recovering from the rank death.
type recoveryProtocol struct {
	Name    string
	Pattern distributed.CheckpointPattern
	Elastic bool
}

// recoveryProtocols are the table's recovery columns, run at every rung.
var recoveryProtocols = []recoveryProtocol{
	{"rollback-rank0", distributed.CkptRank0, false},
	{"rollback-allranks", distributed.CkptAllRanks, false},
	{"elastic", distributed.CkptRank0, true},
}

// faultRung is one rung of the fault ladder; a nil Plan is clean.
type faultRung struct {
	Name string
	Plan *vfs.FaultPlan
}

// recoveryFaultRungs builds the fault ladder. Windows are placed in the
// pre-failure phase (fractions of the no-failure wall time), so every
// protocol degrades through identical conditions before the death.
func recoveryFaultRungs(c Config, noFailWall float64) []faultRung {
	w := func(a, b float64, f float64) vfs.FaultWindow {
		return vfs.FaultWindow{
			Start:  sim.Duration(a * noFailWall * 1e9),
			End:    sim.Duration(b * noFailWall * 1e9),
			Factor: f,
		}
	}
	return []faultRung{
		{"clean", nil},
		{"flaky", &vfs.FaultPlan{Seed: c.shuffleSeed(), ReadErrNth: 97}},
		{"storm", &vfs.FaultPlan{
			Seed:         c.shuffleSeed(),
			ReadErrNth:   41,
			MDSBrownouts: []vfs.FaultWindow{w(0.20, 0.45, 8)},
			DegradedOSTs: []vfs.FaultWindow{w(0.20, 0.45, 4)},
		}},
	}
}

// RecoveryRung is one fault rung's three recoveries: each protocol's
// epoch time, and the elastic run's merged fault tally.
type RecoveryRung struct {
	Name        string
	Rank0Sec    float64
	AllRanksSec float64
	ElasticSec  float64
	Faults      int64
	Retries     int64
}

// DeltaSec is the downtime elastic saves over rollback-rank0.
func (r RecoveryRung) DeltaSec() float64 { return r.Rank0Sec - r.ElasticSec }

// RecoveryRow is one rank count of the recovery table. The clean rung
// supplies the recovery details: the rollback target, the survivors'
// continuation length, the victim's death-to-rejoin window, the
// rollback-rank0 restore burst bandwidth and the checkpoint bytes written
// under the two patterns (All is exactly Ranks x Rank0).
type RecoveryRow struct {
	Ranks          int
	Steps          int
	FailStep       int // global step the victim dies at
	CheckpointStep int
	ElasticSteps   int
	NoFailEpochSec float64
	DowntimeSec    float64
	RestoreMBps    float64
	CkptBytesRank0 int64
	CkptBytesAll   int64
	Rungs          []RecoveryRung
}

// RecoveryResult is the recovery experiment over the rank ladder.
type RecoveryResult struct {
	Rows []RecoveryRow
}

// ID implements Result.
func (r *RecoveryResult) ID() string { return "recovery" }

// Render implements Result.
func (r *RecoveryResult) Render() string {
	var b strings.Builder
	b.WriteString("Recovery from a late-epoch rank death: checkpoint rollback vs elastic continuation under transient faults\n")
	fmt.Fprintf(&b, "  %5s %6s %6s %6s %6s %-6s %10s %9s %12s %11s %9s %8s %8s\n",
		"ranks", "steps", "fail@", "ckpt@", "cont.", "rung", "nofail(s)",
		"rank0(s)", "allranks(s)", "elastic(s)", "delta(s)", "faults", "retries")
	for _, row := range r.Rows {
		for _, rung := range row.Rungs {
			fmt.Fprintf(&b, "  %5d %6d %6d %6d %6d %-6s %10.2f %9.2f %12.2f %11.2f %9.2f %8d %8d\n",
				row.Ranks, row.Steps, row.FailStep, row.CheckpointStep, row.ElasticSteps, rung.Name,
				row.NoFailEpochSec, rung.Rank0Sec, rung.AllRanksSec, rung.ElasticSec,
				rung.DeltaSec(), rung.Faults, rung.Retries)
		}
	}
	return b.String()
}

// Metrics implements Result. The last (largest) rank count also publishes
// the headline metrics the BENCH_<n>.json snapshots track.
func (r *RecoveryResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		p := fmt.Sprintf("ranks%d_", row.Ranks)
		out[p+"nofail_epoch_s"] = row.NoFailEpochSec
		out[p+"restore_delta_s"] = row.Rungs[0].Rank0Sec - row.NoFailEpochSec
		out[p+"restore_MBps"] = row.RestoreMBps
		out[p+"downtime_s"] = row.DowntimeSec
		var retries int64
		for _, rung := range row.Rungs {
			out[p+rung.Name+"_rollback_s"] = rung.Rank0Sec
			out[p+rung.Name+"_allranks_s"] = rung.AllRanksSec
			out[p+rung.Name+"_elastic_s"] = rung.ElasticSec
			out[p+rung.Name+"_delta_s"] = rung.DeltaSec()
			retries += rung.Retries
		}
		out[p+"retry_total"] = float64(retries)
	}
	if n := len(r.Rows); n > 0 {
		p := fmt.Sprintf("ranks%d_", r.Rows[n-1].Ranks)
		out["recovery_restore_delta_s"] = out[p+"restore_delta_s"]
		out["elastic_downtime_delta_s"] = out[p+"clean_delta_s"]
		out["retry_total"] = out[p+"retry_total"]
	}
	return out
}

// runRecoveryVariant executes one protocol under one fault plan on a
// fresh ImageNet cluster with DXT stdio tracing on and the bounded-retry
// policy armed. A nil fail list is the no-failure baseline.
func runRecoveryVariant(c Config, ranks int, p recoveryProtocol, every int, fail []distributed.FailureEvent, plan *vfs.FaultPlan) (*distributed.Result, error) {
	cluster, d, err := buildImageNetCluster(c, ranks, true)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		cluster.FS.InjectFaults(*plan)
	}
	opts := untunedClusterOptions(c)
	opts.Checkpoint = distributed.CheckpointPolicy{Pattern: p.Pattern, EverySteps: every, Dir: recoveryCkptDir}
	opts.Failures = fail
	opts.Elastic = p.Elastic
	opts.Retry = tf.RetryPolicy{
		MaxRetries:  4,
		BaseBackoff: 2 * sim.Millisecond,
		MaxBackoff:  50 * sim.Millisecond,
		OpTimeout:   sim.Second,
		Seed:        c.shuffleSeed(),
	}
	return distributed.Run(cluster, d.Paths, opts)
}

// ckptTimelineReads counts checkpoint-file reads on the merged DXT
// timeline and returns the earliest one's start time.
func ckptTimelineReads(m *darshan.MergedLog) (reads int, earliest float64) {
	for s := range m.Segments() {
		if s.Write || !strings.HasPrefix(m.Names[s.ID], recoveryCkptDir+"/") {
			continue
		}
		if reads == 0 || s.Start < earliest {
			earliest = s.Start
		}
		reads++
	}
	return reads, earliest
}

// datasetReads sums POSIX bytes read outside the checkpoint prefix — the
// dataset traffic a protocol actually paid for — and counts the distinct
// dataset files touched.
func datasetReads(m *darshan.MergedLog) (bytes int64, files int) {
	for i := range m.Posix {
		if strings.HasPrefix(m.Names[m.Posix[i].ID], recoveryCkptDir+"/") {
			continue
		}
		if n := m.Posix[i].Counters[darshan.POSIX_BYTES_READ]; n > 0 {
			bytes += n
			files++
		}
	}
	return bytes, files
}

// checkRecoveryRun verifies the invariants every failure run shares: the
// precomputed step count, one recovery with a rollback checkpoint,
// checkpoint reads present and none before the failure instant (that
// would be recovery I/O leaking into healthy training), and retries on
// fault rungs only.
func checkRecoveryRun(res *distributed.Result, steps int, faulted bool) error {
	if res.Steps != steps {
		return fmt.Errorf("ran %d steps, precomputed %d", res.Steps, steps)
	}
	if len(res.Failures) != 1 {
		return fmt.Errorf("reported %d recoveries, want 1", len(res.Failures))
	}
	f := res.Failures[0]
	if f.CheckpointStep < 1 {
		return fmt.Errorf("failure at step %d found no rollback checkpoint", f.Step)
	}
	reads, earliest := ckptTimelineReads(res.Merged)
	if reads == 0 {
		return fmt.Errorf("no checkpoint reads on the merged timeline")
	}
	if earliest < f.FailSec {
		return fmt.Errorf("checkpoint read at %.3fs precedes the failure at %.3fs", earliest, f.FailSec)
	}
	if !faulted && !res.Merged.Faults.Zero() {
		return fmt.Errorf("clean rung recorded faults %+v", res.Merged.Faults)
	}
	if faulted && res.Merged.Faults.Retries == 0 {
		return fmt.Errorf("fault rung recorded no retries %+v", res.Merged.Faults)
	}
	return nil
}

// checkElasticLifecycles verifies the elastic run's per-rank state
// machines: survivors degrade and re-shard without ever restoring; the
// victim is the only rank that restores.
func checkElasticLifecycles(res *distributed.Result, victim int) error {
	for r := range res.PerRank {
		states := map[distributed.LifecycleState]bool{}
		for _, e := range res.PerRank[r].Lifecycle {
			states[e.State] = true
		}
		if r == victim {
			if !states[distributed.LifeFailed] || !states[distributed.LifeRestoring] {
				return fmt.Errorf("victim rank %d lifecycle %v lacks failed/restoring", r, res.PerRank[r].Lifecycle)
			}
			continue
		}
		if !states[distributed.LifeDegraded] || !states[distributed.LifeResharded] {
			return fmt.Errorf("survivor rank %d lifecycle %v lacks degraded/resharded", r, res.PerRank[r].Lifecycle)
		}
		if states[distributed.LifeRestoring] {
			return fmt.Errorf("survivor rank %d restored; elastic mode must not roll survivors back", r)
		}
		if res.PerRank[r].RestoreBytes != 0 {
			return fmt.Errorf("survivor rank %d read %d restore bytes", r, res.PerRank[r].RestoreBytes)
		}
	}
	return nil
}

// ckptBytes sums the checkpoint bytes every rank of a run wrote.
func ckptBytes(res *distributed.Result) int64 {
	var n int64
	for r := range res.PerRank {
		n += res.PerRank[r].CkptBytes()
	}
	return n
}

// checkRecoveryRung verifies the cross-protocol invariants of one rung.
func checkRecoveryRung(noFail, rank0, all, elastic *distributed.Result, ranks, victim, batch int) error {
	if ckpt0, ckptAll := ckptBytes(rank0), ckptBytes(all); ckpt0 == 0 || ckptAll != int64(ranks)*ckpt0 {
		return fmt.Errorf("all-ranks checkpoints wrote %d bytes, want exactly %d x %d", ckptAll, ranks, ckpt0)
	}
	rf, af, ef := rank0.Failures[0], all.Failures[0], elastic.Failures[0]
	if rf.RestoreBytes != af.RestoreBytes {
		return fmt.Errorf("restore bytes differ between rollback patterns: %d vs %d", rf.RestoreBytes, af.RestoreBytes)
	}
	// No restore storm: the rollback burst is every rank's, the elastic
	// burst the victim's alone — exactly the rank factor.
	if ef.RestoreBytes == 0 || rf.RestoreBytes != int64(ranks)*ef.RestoreBytes {
		return fmt.Errorf("restore bytes rollback %d vs elastic %d, want exactly %dx", rf.RestoreBytes, ef.RestoreBytes, ranks)
	}
	if elastic.WallSeconds >= rank0.WallSeconds {
		return fmt.Errorf("elastic %.3fs did not beat rollback %.3fs", elastic.WallSeconds, rank0.WallSeconds)
	}
	if !ef.Elastic || ef.ElasticSteps < 1 || ef.ReshardFiles < 1 {
		return fmt.Errorf("elastic record %+v lacks a continuation", ef)
	}
	if err := checkElasticLifecycles(elastic, victim); err != nil {
		return err
	}
	// Byte conservation. Elastic reads the dataset once, plus the files the
	// victim had read ahead and lost, minus at most batch+1 sub-batch tail
	// files per survivor cut by the re-shard. Rollback re-reads every
	// replayed step on every rank, so it never reads fewer bytes.
	nfBytes, nfFiles := datasetReads(noFail.Merged)
	eBytes, eFiles := datasetReads(elastic.Merged)
	rBytes, _ := datasetReads(rank0.Merged)
	if slack := (ranks - 1) * (batch + 1); eFiles < nfFiles-slack {
		return fmt.Errorf("elastic run lost dataset files: %d of %d read (slack %d)", eFiles, nfFiles, slack)
	}
	if rBytes < eBytes {
		return fmt.Errorf("dataset bytes not conserved: nofail %d, elastic %d, rollback %d", nfBytes, eBytes, rBytes)
	}
	return nil
}

// runRecoveryRankCount runs the baseline and every protocol x fault rung
// cell at one rank count.
func runRecoveryRankCount(c Config, ranks int) (RecoveryRow, error) {
	// A throwaway cluster provides the (deterministic) corpus path list
	// the step count is precomputed from.
	_, d, err := buildImageNetCluster(c, ranks, true)
	if err != nil {
		return RecoveryRow{}, err
	}
	// tf.data shards round-robin, so the last rank's shard is the shortest
	// and its full batches are the lockstep step count.
	opts := untunedClusterOptions(c)
	steps := tfdata.ShardLen(len(d.Paths), ranks, ranks-1) / opts.Batch
	if steps < 4 {
		return RecoveryRow{}, fmt.Errorf("ranks=%d: %d steps is too short to fail late-epoch (raise -scale)", ranks, steps)
	}
	// Checkpoint twice per epoch and die three quarters through, midway
	// between checkpoints. Rollback then replays S/4 steps on every rank
	// behind the reboot stall; elastic spreads the victim's S/4 remaining
	// steps over the N-1 survivors and replays nothing, so it wins by the
	// stall and restore it never serializes (and by more as N grows).
	// Checkpoint often enough, or die right after one, and rollback wins.
	failStep := (3 * steps) / 4
	every := steps / 2
	victim := 1
	fail := []distributed.FailureEvent{{Rank: victim, Step: failStep, RebootDelay: recoveryRebootDelay}}

	noFail, err := runRecoveryVariant(c, ranks, recoveryProtocols[0], every, nil, nil)
	if err != nil {
		return RecoveryRow{}, err
	}
	if len(noFail.Failures) != 0 || !noFail.Merged.Faults.Zero() {
		return RecoveryRow{}, fmt.Errorf("ranks=%d: no-failure baseline recorded failures %d, faults %+v",
			ranks, len(noFail.Failures), noFail.Merged.Faults)
	}
	if noFail.Steps != steps {
		return RecoveryRow{}, fmt.Errorf("ranks=%d: baseline ran %d steps, precomputed %d", ranks, noFail.Steps, steps)
	}
	row := RecoveryRow{Ranks: ranks, Steps: steps, FailStep: failStep, NoFailEpochSec: noFail.WallSeconds}

	for _, rung := range recoveryFaultRungs(c, noFail.WallSeconds) {
		runs := make([]*distributed.Result, len(recoveryProtocols))
		for i, p := range recoveryProtocols {
			res, err := runRecoveryVariant(c, ranks, p, every, fail, rung.Plan)
			if err == nil {
				err = checkRecoveryRun(res, steps, rung.Plan != nil)
			}
			if err != nil {
				return RecoveryRow{}, fmt.Errorf("ranks=%d rung %s %s: %w", ranks, rung.Name, p.Name, err)
			}
			runs[i] = res
		}
		rank0, all, elastic := runs[0], runs[1], runs[2]
		if err := checkRecoveryRung(noFail, rank0, all, elastic, ranks, victim, opts.Batch); err != nil {
			return RecoveryRow{}, fmt.Errorf("ranks=%d rung %s: %w", ranks, rung.Name, err)
		}
		if rung.Plan == nil {
			rf, ef := rank0.Failures[0], elastic.Failures[0]
			row.CheckpointStep = rf.CheckpointStep
			row.ElasticSteps = ef.ElasticSteps
			row.DowntimeSec = rf.RejoinSec - rf.FailSec
			if rf.RestoreSeconds > 0 {
				row.RestoreMBps = float64(rf.RestoreBytes) / 1e6 / rf.RestoreSeconds
			}
			row.CkptBytesRank0 = ckptBytes(rank0)
			row.CkptBytesAll = ckptBytes(all)
		}
		row.Rungs = append(row.Rungs, RecoveryRung{
			Name:        rung.Name,
			Rank0Sec:    rank0.WallSeconds,
			AllRanksSec: all.WallSeconds,
			ElasticSec:  elastic.WallSeconds,
			Faults:      elastic.Merged.Faults.Faults,
			Retries:     elastic.Merged.Faults.Retries,
		})
	}
	return row, nil
}

// RecoveryExperiment sweeps rank counts >= 2 (elastic recovery needs at
// least one survivor) through every protocol x fault rung cell.
func RecoveryExperiment(c Config) (*RecoveryResult, error) {
	ranks := slices.DeleteFunc(c.rankSweep(), func(r int) bool { return r < 2 })
	if len(ranks) == 0 {
		return nil, fmt.Errorf("recovery: no rank counts >= 2 in the sweep (elastic recovery needs a survivor)")
	}
	rows, err := sweepRanks(c, ranks, runRecoveryRankCount)
	if err != nil {
		return nil, err
	}
	return &RecoveryResult{Rows: rows}, nil
}
