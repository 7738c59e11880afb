// Command tfdarshan regenerates the paper's tables and figures and
// produces profiling artifacts for the companion tools.
//
// Usage:
//
//	tfdarshan list
//	tfdarshan run [-scale f] <id>...       (ids: see tfdarshan list, or "all")
//	tfdarshan metrics [-scale f] <id>...   (metrics only, no figure body)
//	tfdarshan artifacts [-scale f] [-out dir] <imagenet|malware|distributed>
//	    writes darshan.log, trace.json.gz and profile.pb from a profiled
//	    run (inputs for darshan-parser, dxt-parser and traceviewer);
//	    "distributed" runs the data-parallel cluster job ([-ranks n],
//	    default 4) and writes the merged darshan.log plus per-rank
//	    darshan-rank<r>.log files
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/vfs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	cfg, outDir, args, err := parseArgs(cmd, os.Args[2:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	switch cmd {
	case "artifacts":
		if len(args) != 1 {
			usage()
			os.Exit(2)
		}
		if err := writeArtifacts(cfg, args[0], outDir); err != nil {
			fmt.Fprintf(os.Stderr, "artifacts: %v\n", err)
			os.Exit(1)
		}
	case "list":
		for _, r := range experiments.All() {
			fmt.Printf("  %-8s %s\n", r.ID, r.Description)
		}
	case "run", "metrics":
		ids := args
		if len(ids) == 1 && ids[0] == "all" {
			ids = nil
			for _, r := range experiments.All() {
				ids = append(ids, r.ID)
			}
		}
		if len(ids) == 0 {
			usage()
			os.Exit(2)
		}
		for _, id := range ids {
			if _, ok := experiments.Find(id); !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try: tfdarshan list)\n", id)
				os.Exit(1)
			}
		}
		start := time.Now() //lint:allow wallclock host-side elapsed time of the run itself, never enters sim results
		print := func(id string, res experiments.Result) {
			runner, _ := experiments.Find(id)
			fmt.Printf("==== %s — %s (scale %.3f) ====\n",
				runner.ID, runner.Description, cfg.Scale)
			if cmd == "run" {
				fmt.Println(res.Render())
			}
			fmt.Println("metrics:")
			fmt.Print(experiments.RenderMetrics(res.Metrics()))
			fmt.Println()
		}
		if experiments.Parallelism(cfg.Parallel) <= 1 {
			// Serial: stream each artifact as it completes.
			for _, id := range ids {
				runner, _ := experiments.Find(id)
				res, err := runner.Run(cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
					os.Exit(1)
				}
				print(id, res)
			}
		} else {
			results, err := experiments.RunAll(cfg, ids)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				os.Exit(1)
			}
			for i, res := range results {
				print(ids[i], res)
			}
		}
		fmt.Printf("ran %d artifact(s) in %.1fs real (parallel=%d)\n",
			len(ids), time.Since(start).Seconds(), experiments.Parallelism(cfg.Parallel)) //lint:allow wallclock reports real host time to the operator, never enters sim results
	default:
		usage()
		os.Exit(2)
	}
}

// parseArgs parses a subcommand's flags into the experiment config, the
// artifact output directory and the positional arguments. It rejects
// values no experiment can run: a -ranks beyond the compute nodes one
// file system can back, and a -scale that is not a finite number > 0.
// Parse and validation errors are reported on out.
func parseArgs(cmd string, argv []string, out io.Writer) (experiments.Config, string, []string, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(out)
	scale := fs.Float64("scale", 1.0, "dataset/step scale factor (1.0 = paper scale)")
	seed := fs.Int64("seed", 0, "shuffle seed perturbation")
	verify := fs.Bool("verify", false, "materialize and checksum all read content (slow; validates the zero-materialization fast path)")
	ranks := fs.Int("ranks", 0, "pin the rank sweeps (ranks, tune, prefetch, recovery) and the dataservice fleet to one size (0 = each experiment's ladder: 1,2,4,8 ranks; 2,4,8 for recovery and dataservice)")
	parallel := fs.Int("parallel", 1, "simulation kernels to run concurrently on host CPUs (0 = one per core; results are byte-identical at any setting)")
	outDir := fs.String("out", ".", "artifact output directory")
	if err := fs.Parse(argv); err != nil {
		return experiments.Config{}, "", nil, err
	}
	var err error
	switch {
	case *ranks < 0 || *ranks > vfs.MaxNodes:
		err = fmt.Errorf("invalid -ranks %d: want 0 (sweep) up to %d", *ranks, vfs.MaxNodes)
	case !(*scale > 0) || math.IsInf(*scale, 1):
		err = fmt.Errorf("invalid -scale %v: want a finite number > 0", *scale)
	}
	if err != nil {
		fmt.Fprintf(out, "%s: %v\n", cmd, err)
		return experiments.Config{}, "", nil, err
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, VerifyContent: *verify, Ranks: *ranks, Parallel: *parallel}
	if *parallel == 0 {
		cfg.Parallel = -1 // one worker per core
	}
	return cfg, *outDir, fs.Args(), nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tfdarshan list
  tfdarshan run       [-scale f] [-seed n] [-verify] [-ranks n] [-parallel n] <id>...|all
  tfdarshan metrics   [-scale f] [-seed n] [-verify] [-ranks n] [-parallel n] <id>...|all
  tfdarshan artifacts [-scale f] [-ranks n] [-out dir] <imagenet|malware|distributed>

the "ranks" experiment shards ImageNet over N data-parallel ranks on one
shared Lustre system; -ranks pins it to a single rank count

"tune" runs the rank-aware autotuning experiment: the untuned
4-threads/rank baseline vs. per-rank threads/prefetch picked by
cluster-wide probes over the merged Darshan profile, with each rank's
small-file shard staged to its node-local NVMe (e.g. "tfdarshan run
-ranks 4 tune")

"prefetch" runs the clairvoyant prefetching experiment: per-node daemons
walk each rank's seeded per-epoch shard order ahead of the consumer,
filling a bounded node NVMe cache (with peer-cache serving over the
interconnect), swept over a cache-capacity ladder against the cold-Lustre
and offline-staging baselines

"recovery" runs the failure/recovery experiment: one rank dies three
quarters through the epoch, its node reboots with cold caches and a fresh
Darshan runtime, and the job recovers by checkpoint rollback (rank-0 or
all-ranks checkpoints, every rank re-reading them in a restore burst at
the shared PFS) or elastically (survivors re-shard the victim's remaining
work while the reborn rank catches up alone), each under a ladder of
injected transient faults (flaky reads with bounded retries, an MDS
brownout, a degraded-OST window) — elastic must beat rollback on wall
time at every rung; rank counts below 2 are skipped

"dataservice" runs the disaggregated tf.data service experiment: a
dispatcher admits concurrent training jobs and leases per-job shards to a
fleet of data workers that read, decode and batch on the jobs' behalf
over shared Lustre through a peer-served node NVMe cache tier, ramping
jobs {4,16,64,256} per fleet size and reporting which resource saturates
first (PFS bandwidth, shared MDS, cache tier, dispatcher), against the
same jobs run as independent cold pipelines; -ranks pins the fleet size

"artifacts distributed" runs the cluster job at -ranks ranks (default 4)
and writes the merged darshan.log (nprocs > 1, rank -1 shared records,
rank-attributed DXT timeline) plus one darshan-rank<r>.log per rank

-ranks pins the rank sweeps (ranks, tune, prefetch, recovery) and the
dataservice fleet to one size, at most 64 (the compute nodes one file
system backs); 0 runs each experiment's ladder: 1,2,4,8 ranks for ranks,
tune and prefetch, 2,4,8 for recovery and the dataservice fleets

-scale must be a finite number > 0 (1.0 = paper scale)

-parallel runs independent artifacts (and the sweep points inside fig5,
fig12, ranks, tune, prefetch, recovery and dataservice) concurrently on
host CPUs; 0 uses one worker per core. Outputs are byte-identical to a
serial run — kernels share nothing.`)
}

// writeArtifacts runs a profiled case study and writes the Darshan log,
// trace.json.gz and profile.pb for the companion tools. The distributed
// use case writes the merged cluster log plus one darshan-rank<r>.log per
// rank instead of the trace/profile pair.
func writeArtifacts(cfg experiments.Config, useCase, dir string) error {
	art, err := experiments.ProduceArtifacts(cfg, useCase)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type out struct {
		name string
		data []byte
	}
	files := []out{
		{"darshan.log", art.DarshanLog},
		{"trace.json.gz", art.TraceJSONGz},
		{"profile.pb", art.ProfilePB},
	}
	for r, log := range art.PerRankLogs {
		files = append(files, out{fmt.Sprintf("darshan-rank%d.log", r), log})
	}
	for _, f := range files {
		if f.data == nil {
			continue
		}
		p := filepath.Join(dir, f.name)
		if err := os.WriteFile(p, f.data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", p, len(f.data))
	}
	return nil
}
