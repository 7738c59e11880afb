package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dataservice"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the disaggregated tf.data service experiment: per worker-
// fleet size it ramps the number of concurrent training jobs served by
// the fleet — every job an independently shuffled epoch over the same
// STREAM(ImageNet) corpus on shared Lustre, read/decoded/batched by the
// workers through a peer-served NVMe cache tier and delivered over the
// interconnect — and reports which resource saturates first at each rung:
// the PFS object servers, the shared MDS, the cache tier's NVMe devices,
// or the dispatcher's serialized control plane. A no-service baseline
// (the same jobs as independent cold pipelines) anchors the dedup win.
// The sharing/exactness invariants are verified in-experiment rather than
// just reported: every job's batch count must match its leases exactly,
// the fleet's PFS traffic must stay within [corpus, sum of per-job cold
// bytes], and the shared tier must strictly beat the independent
// pipelines on both wall time and PFS bytes.

// dataserviceJobRamp is the concurrent-job ladder each fleet size serves.
var dataserviceJobRamp = []int{4, 16, 64, 256}

// dataserviceBaselineJobs is the ramp rung the no-service baseline runs
// at — the point the speedup/bytes-saved comparison is anchored on.
const dataserviceBaselineJobs = 16

// dataserviceFleets is the worker-fleet ladder (Config.Ranks pins one).
func dataserviceFleets(c Config) []int {
	if c.Ranks > 0 {
		return []int{c.Ranks}
	}
	return []int{2, 4, 8}
}

// DataServiceRung is one job count of a fleet's ramp.
type DataServiceRung struct {
	Jobs int
	// WallSec is the virtual time to serve every job's epoch.
	WallSec float64
	// AggMBps is the delivered (post-decode, batched) bandwidth summed
	// over jobs.
	AggMBps float64
	// PFSBytesRead/ColdBytes: what the fleet actually read off Lustre vs
	// what the jobs would have read with no sharing; DedupX is their
	// ratio (jobs-over-one-corpus makes it approach the job count).
	PFSBytesRead int64
	ColdBytes    int64
	DedupX       float64
	// Utilizations of the four saturable resources over the run's wall
	// time; Saturated names the largest.
	PFSUtil   float64
	MDSUtil   float64
	CacheUtil float64
	DispUtil  float64
	Saturated string
}

// DataServiceRow is one fleet size of the experiment.
type DataServiceRow struct {
	Fleet int
	Rungs []DataServiceRung
	// KneeJobs is the first ramp rung whose aggregate delivered
	// throughput scaled at under half the ideal ratio from the previous
	// rung — where adding jobs stops buying throughput (the last rung if
	// the ramp never knees).
	KneeJobs int
	// SpeedupX and BytesSavedMB compare the service's run at
	// dataserviceBaselineJobs against the independent-pipelines baseline
	// at the same job count.
	SpeedupX     float64
	BytesSavedMB float64
}

// DataServiceResult is the disaggregated data service experiment.
type DataServiceResult struct {
	Rows []DataServiceRow
}

// ID implements Result.
func (r *DataServiceResult) ID() string { return "dataservice" }

// Render implements Result.
func (r *DataServiceResult) Render() string {
	var b strings.Builder
	b.WriteString("Disaggregated tf.data service: concurrent-job ramp per worker fleet over shared Lustre\n")
	fmt.Fprintf(&b, "  %5s %5s %8s %9s %7s %6s %6s %6s %6s  %-10s\n",
		"fleet", "jobs", "wall(s)", "agg MB/s", "dedup", "pfs%", "mds%", "cache%", "disp%", "saturates")
	for _, row := range r.Rows {
		for _, g := range row.Rungs {
			fmt.Fprintf(&b, "  %5d %5d %8.2f %9.1f %6.1fx %5.1f%% %5.1f%% %5.1f%% %5.1f%%  %-10s\n",
				row.Fleet, g.Jobs, g.WallSec, g.AggMBps, g.DedupX,
				g.PFSUtil*100, g.MDSUtil*100, g.CacheUtil*100, g.DispUtil*100, g.Saturated)
		}
		fmt.Fprintf(&b, "  %5d knee at %d jobs; vs %d independent pipelines: %.2fx faster, %.1f MB of PFS reads saved\n",
			row.Fleet, row.KneeJobs, dataserviceBaselineJobs, row.SpeedupX, row.BytesSavedMB)
	}
	return b.String()
}

// Metrics implements Result.
func (r *DataServiceResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		fp := fmt.Sprintf("fleet%d_", row.Fleet)
		for _, g := range row.Rungs {
			p := fmt.Sprintf("%sjobs%03d_", fp, g.Jobs)
			out[p+"wall_s"] = g.WallSec
			out[p+"agg_MBps"] = g.AggMBps
			out[p+"dedup_x"] = g.DedupX
			out[p+"pfs_util"] = g.PFSUtil
			out[p+"mds_util"] = g.MDSUtil
			out[p+"cache_util"] = g.CacheUtil
			out[p+"disp_util"] = g.DispUtil
		}
		out[fp+"knee_jobs"] = float64(row.KneeJobs)
		out[fp+"speedup_vs_independent_x"] = row.SpeedupX
		out[fp+"bytes_saved_MB"] = row.BytesSavedMB
	}
	// Headline metrics for the benchmark snapshots: the largest fleet.
	last := r.Rows[len(r.Rows)-1]
	out["dataservice_jobs_knee"] = float64(last.KneeJobs)
	out["dataservice_speedup_vs_independent_x"] = last.SpeedupX
	if len(last.Rungs) > 0 {
		out["dataservice_dedup_ratio"] = last.Rungs[len(last.Rungs)-1].DedupX
	}
	return out
}

// buildDataServiceCluster boots a worker fleet with preloaded Darshan
// over the shared STREAM(ImageNet) corpus. The corpus is a quarter of the
// STREAM subset: every job of the deepest rung reads it whole, so the ramp
// multiplies it by up to 256 epochs.
func buildDataServiceCluster(c Config, fleet int) (*platform.Cluster, *workload.Dataset, error) {
	cluster := platform.NewKebnekaiseCluster(fleet, platform.Options{PreloadDarshan: true})
	for _, n := range cluster.Nodes {
		c.boot(n)
	}
	spec := workload.StreamImageNetSpec(platform.KebnekaiseLustre+"/dsvc", c.Scale*0.25)
	d, err := workload.BuildStreamImageNet(cluster.FS, spec)
	if err != nil {
		return nil, nil, err
	}
	return cluster, d, nil
}

// dataserviceJobs builds the rung's job set: every job an independently
// shuffled epoch over the shared corpus.
func dataserviceJobs(c Config, paths []string, jobs int) []dataservice.JobSpec {
	specs := make([]dataservice.JobSpec, jobs)
	for i := range specs {
		specs[i] = dataservice.JobSpec{
			Name:    fmt.Sprintf("j%03d", i),
			Paths:   paths,
			Shuffle: c.shuffleSeed() + int64(i),
			Batch:   8,
		}
	}
	return specs
}

// runDataServicePoint serves one (fleet, jobs) rung, with or without the
// shared cache tier, verifying the exactness and sharing invariants.
func runDataServicePoint(c Config, fleet, jobs int, shared bool) (DataServiceRung, error) {
	cluster, d, err := buildDataServiceCluster(c, fleet)
	if err != nil {
		return DataServiceRung{}, err
	}
	corpus := d.Total()
	cfg := dataservice.Config{MapFn: workload.ImageNetMap, Threads: 2}
	if shared {
		// The tier holds the whole corpus per worker: capacity pressure is
		// the prefetch experiment's subject, saturation under sharing is
		// this one's.
		cfg.CacheBytes = 2 * corpus
		cfg.PeerServing = true
	}
	res, err := dataservice.Run(cluster, dataserviceJobs(c, d.Paths, jobs), cfg)
	if err != nil {
		return DataServiceRung{}, err
	}

	rung := DataServiceRung{
		Jobs:         jobs,
		WallSec:      res.WallSeconds,
		PFSBytesRead: res.PFSBytesRead,
		ColdBytes:    res.TotalColdBytes(),
	}
	var delivered int64
	for _, j := range res.Jobs {
		// Exactness: a served epoch delivers exactly the batches its shard
		// leases imply — no dropped or duplicated work under contention.
		if j.Batches != j.ExpectedBatches {
			return DataServiceRung{}, fmt.Errorf(
				"dataservice: fleet=%d jobs=%d: %s delivered %d batches, leases imply %d",
				fleet, jobs, j.Name, j.Batches, j.ExpectedBatches)
		}
		if j.Bytes != j.ColdBytes {
			return DataServiceRung{}, fmt.Errorf(
				"dataservice: fleet=%d jobs=%d: %s consumed %d bytes of a %d-byte epoch",
				fleet, jobs, j.Name, j.Bytes, j.ColdBytes)
		}
		delivered += j.Bytes
	}
	// Sharing: the fleet reads every corpus byte at least once, and never
	// more than the jobs would have read with no sharing at all; with the
	// shared tier and overlapping jobs, strictly less.
	if rung.PFSBytesRead < corpus || rung.PFSBytesRead > rung.ColdBytes {
		return DataServiceRung{}, fmt.Errorf(
			"dataservice: fleet=%d jobs=%d: PFS read %d bytes outside [corpus %d, cold %d]",
			fleet, jobs, rung.PFSBytesRead, corpus, rung.ColdBytes)
	}
	if shared && jobs > 1 && rung.PFSBytesRead >= rung.ColdBytes {
		return DataServiceRung{}, fmt.Errorf(
			"dataservice: fleet=%d jobs=%d: shared tier deduplicated nothing (%d of %d cold bytes)",
			fleet, jobs, rung.PFSBytesRead, rung.ColdBytes)
	}
	if rung.PFSBytesRead > 0 {
		rung.DedupX = float64(rung.ColdBytes) / float64(rung.PFSBytesRead)
	}
	if rung.WallSec > 0 {
		rung.AggMBps = float64(delivered) / 1e6 / rung.WallSec

		// Utilization of each saturable resource over the run.
		p := cluster.Lustre.Params()
		rung.PFSUtil = float64(rung.PFSBytesRead) / (p.OSSBandwidth * rung.WallSec)
		rung.MDSUtil = float64(res.PFSMetaOps) * sim.Seconds(p.MDSLatency) /
			(float64(p.MDSConcurrency) * rung.WallSec)
		for _, busy := range res.CacheBusy {
			rung.CacheUtil = max(rung.CacheUtil, sim.Seconds(busy)/rung.WallSec)
		}
		rung.DispUtil = sim.Seconds(res.Dispatcher.BusyNs) / rung.WallSec
	}
	rung.Saturated = "pfs"
	top := rung.PFSUtil
	for _, r := range []struct {
		name string
		util float64
	}{{"mds", rung.MDSUtil}, {"cache", rung.CacheUtil}, {"dispatcher", rung.DispUtil}} {
		if r.util > top {
			rung.Saturated, top = r.name, r.util
		}
	}
	return rung, nil
}

// kneeJobs finds the first rung whose aggregate throughput scaled at
// under half the ideal job ratio from the previous rung.
func kneeJobs(rungs []DataServiceRung) int {
	for i := 1; i < len(rungs); i++ {
		prev, cur := rungs[i-1], rungs[i]
		if prev.AggMBps <= 0 {
			continue
		}
		ideal := float64(cur.Jobs) / float64(prev.Jobs)
		if cur.AggMBps/prev.AggMBps < 0.5*ideal {
			return cur.Jobs
		}
	}
	return rungs[len(rungs)-1].Jobs
}

// DataServiceExperiment ramps concurrent jobs per worker-fleet size, plus
// one independent-pipelines baseline per fleet. Every sweep point builds
// an independent cluster, so points run concurrently under
// Config.Parallel with rows assembled in ladder order (byte-identical to
// a serial run).
func DataServiceExperiment(c Config) (*DataServiceResult, error) {
	fleets := dataserviceFleets(c)
	perFleet := len(dataserviceJobRamp) + 1 // ramp rungs + no-service baseline
	rungs := make([]DataServiceRung, len(fleets)*perFleet)
	err := runIndexed(c.Parallel, len(rungs), func(i int) error {
		fleet := fleets[i/perFleet]
		k := i % perFleet
		var err error
		if k == len(dataserviceJobRamp) {
			rungs[i], err = runDataServicePoint(c, fleet, dataserviceBaselineJobs, false)
		} else {
			rungs[i], err = runDataServicePoint(c, fleet, dataserviceJobRamp[k], true)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &DataServiceResult{}
	for fi, fleet := range fleets {
		row := DataServiceRow{Fleet: fleet}
		row.Rungs = rungs[fi*perFleet : fi*perFleet+len(dataserviceJobRamp)]
		baseline := rungs[fi*perFleet+len(dataserviceJobRamp)]
		row.KneeJobs = kneeJobs(row.Rungs)

		var at *DataServiceRung
		for i := range row.Rungs {
			if row.Rungs[i].Jobs == dataserviceBaselineJobs {
				at = &row.Rungs[i]
			}
		}
		if at == nil {
			return nil, fmt.Errorf("dataservice: fleet=%d: ramp has no %d-job rung to anchor the baseline",
				fleet, dataserviceBaselineJobs)
		}
		// The service must strictly beat the same jobs run as independent
		// cold pipelines — on time and on PFS traffic — or disaggregating
		// the data plane bought nothing.
		if at.WallSec >= baseline.WallSec || at.PFSBytesRead >= baseline.PFSBytesRead {
			return nil, fmt.Errorf(
				"dataservice: fleet=%d jobs=%d: service (%.2fs, %d PFS bytes) did not beat independent pipelines (%.2fs, %d)",
				fleet, dataserviceBaselineJobs, at.WallSec, at.PFSBytesRead, baseline.WallSec, baseline.PFSBytesRead)
		}
		row.SpeedupX = baseline.WallSec / at.WallSec
		row.BytesSavedMB = float64(baseline.PFSBytesRead-at.PFSBytesRead) / 1e6
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
