package distributed

import (
	"errors"
	"fmt"

	"repro/internal/darshan"
	"repro/internal/sim"
	"repro/internal/tf"
	"repro/internal/tf/keras"
	"repro/internal/tf/tfdata"
)

// Elastic continue-on-failure mode: instead of rolling every rank back to
// the last checkpoint when a node dies, the survivors observe the broken
// barrier generation, deterministically re-shard the victim's remaining
// epoch work across the N−1 live ranks, and keep committing steps. The
// reborn rank restores the last checkpoint alone (a catch-up read burst,
// not a cluster-wide restore storm) and is absorbed at the next step
// boundary via Barrier.Join, draining the remaining generations until the
// job ends. The failover invariants get elastic counterparts: exactly one
// rank restores, and total dataset bytes read are conserved modulo the
// work re-read by the re-sharding.

// Elastic lifecycle states (extending the rollback set in failover.go):
// a survivor marks degraded when it observes the broken generation and
// resharded when it adopts its continuation shard.
const (
	LifeDegraded  LifecycleState = "degraded"
	LifeResharded LifecycleState = "resharded"
)

// ErrNoSurvivors is returned (wrapped) when the last live rank dies: with
// nobody left to carry the epoch, elastic mode aborts the job with a
// structured error instead of panicking in the barrier.
var ErrNoSurvivors = errors.New("distributed: no surviving ranks")

// elasticPlan is the deterministic continuation the survivors adopt after
// the failure event: one re-sharded file sequence per surviving rank and
// the lockstep step count of the continuation segment.
type elasticPlan struct {
	// seq[r] is rank r's continuation sequence (nil for the victim).
	seq [][]string
	// steps is the continuation segment's lockstep step count.
	steps int
	// total is the job's total barrier generations: the broken step (which
	// the survivors commit) plus the continuation steps. The victim drains
	// generations up to this count after it rejoins.
	total int
	// reshardFiles is how many of the victim's remaining files were
	// reassigned to survivors.
	reshardFiles int
}

// envFaultCounters maps a process env's retry tally into the Darshan-side
// fault counters stamped on that process's exported snapshot.
func envFaultCounters(env *tf.Env) darshan.FaultCounters {
	s := env.RetryStats
	return darshan.FaultCounters{
		Faults:    s.Faults,
		Retries:   s.Retries,
		Giveups:   s.Giveups,
		Timeouts:  s.Timeouts,
		BackoffNs: s.BackoffNs,
	}
}

// ensureElasticPlan computes the continuation plan once per job. It is a
// pure function of the options, the file list and the failure event, so
// whichever rank reaches it first (the victim, before it leaves the
// barrier) writes what every other rank would have written.
func (d *driver) ensureElasticPlan(paths []string) {
	if d.elastic.total != 0 {
		return
	}
	fs := &d.fails[0]
	victim := fs.ev.Rank
	brk := fs.ev.Step // the broken step; survivors commit it without gradients
	ranks := len(d.c.Nodes)
	batch := d.opts.Batch

	// The victim died at the start of step brk, so its batches for steps
	// brk.. remain unconsumed. (Its step-brk batch was never read: the
	// death fires before the iterator pull.)
	vseq := ShardPaths(paths, d.opts.Shuffle, ranks, victim)
	voff := min((brk-1)*batch, len(vseq))
	vrem := vseq[voff:]

	live := ranks - 1
	plan := elasticPlan{seq: make([][]string, ranks), reshardFiles: len(vrem)}
	idx := 0
	for r := 0; r < ranks; r++ {
		if r == victim {
			continue
		}
		seq := ShardPaths(paths, d.opts.Shuffle, ranks, r)
		off := min(brk*batch, len(seq))
		// Own remaining work, then this survivor's deterministic share of
		// the victim's remainder (tf.data shard semantics over the live
		// ranks in ascending rank order).
		cont := append(append([]string(nil), seq[off:]...),
			tfdata.FromFiles(nil, vrem).Shard(live, idx).Paths()...)
		plan.seq[r] = cont
		s := max(len(cont)/batch, 1)
		if plan.steps == 0 || s < plan.steps {
			plan.steps = s
		}
		idx++
	}
	plan.total = brk + plan.steps
	d.elastic = plan

	fs.elastic = true
	fs.elasticSteps = plan.steps
	fs.reshardFiles = plan.reshardFiles
}

// applyRetry arms the rank's process-wide transient-retry policy, giving
// each rank its own jitter stream. Reapplied after a rejoin (the reborn
// process starts from the same policy, so its backoff schedule is
// reproducible run-to-run).
func (d *driver) applyRetry(env *tf.Env, r int) {
	pol := d.opts.Retry
	if pol.Enabled() {
		pol.Seed += int64(r) * 7919
	}
	env.Retry = pol
}

// elasticVictim runs the victim's side of the elastic protocol after its
// scheduled death: leave the barrier (breaking the generation the
// survivors are parked on), reboot, restore the last checkpoint alone —
// the catch-up read burst — then rejoin the barrier and drain the
// remaining generations until the survivors finish the epoch.
func (d *driver) elasticVictim(t *sim.Thread, r, killed int, paths []string, newModel func() *keras.Model) error {
	opts := &d.opts
	fs := &d.fails[0]
	rr := &d.res.PerRank[r]

	fs.failNs = t.Now()
	fs.ckptStep = opts.Checkpoint.lastBefore(killed)
	d.mark(rr, t, LifeFailed, killed)
	// The plan must exist before the survivors wake from the broken
	// generation; the victim computes it (deterministically) on its way out.
	d.ensureElasticPlan(paths)
	survivors := d.bar.Leave(t)
	d.c.KillNode(r)
	if !survivors {
		return fmt.Errorf("distributed: rank %d died at step %d: %w", r, killed, ErrNoSurvivors)
	}
	t.Sleep(fs.ev.RebootDelay)
	node := d.c.RejoinNode(r)
	node.Env.VerifyContent = opts.VerifyContent
	d.applyRetry(node.Env, r)
	model := newModel()
	rr.Incarnations++
	fs.rejoinNs = t.Now()
	d.mark(rr, t, LifeRejoined, killed)

	// Catch-up restore: the victim alone re-reads the rollback checkpoint
	// (survivors never stopped, so nobody else touches the checkpoint
	// files — the elastic no-restore-storm invariant).
	if fs.ckptStep >= 1 && opts.Checkpoint.Pattern != CkptNone {
		d.mark(rr, t, LifeRestoring, fs.ckptStep+1)
		restoreStart := t.Now()
		fs.restoreStartNs = restoreStart
		n, err := d.restore(t, r, node.Env, model, fs.ckptStep)
		if err != nil {
			return err
		}
		rr.RestoreBytes += n
		rr.RestoreNs += t.Now() - restoreStart
		fs.restoreBytes += n
		fs.restoreEndNs = t.Now()
	}

	// Absorb at the next step boundary: Join raises the quorum, and the
	// generation counter says how far the survivors have advanced — the
	// victim participates in every remaining generation so the barrier
	// math stays whole. (No park can intervene between Join and Gen in
	// the cooperative kernel, so the count is consistent.)
	d.bar.Join(t)
	g := d.bar.Gen()
	fs.resumeStep = g + 1
	d.mark(rr, t, LifeRunning, g+1)
	for ; g < d.elastic.total; g++ {
		d.bar.Await(t)
	}
	return nil
}
