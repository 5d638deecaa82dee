// Command fsctbench is the repository's benchmark: one command that runs
// one of four workloads through the public entry points of the
// functional-scan-chain-test system, checks their outputs, and prints
// every metric by name with its unit. BENCHMARK.json at the repository
// root lists the workloads and metrics; `fsctbench --describe` prints
// that document from the tables in metrics.go.
//
// Run it from the repository root:
//
//	bash fsctbench/run.sh --workload flow-seqatpg --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, measured untraced; with --trace 1 they are
// the per-layer ones, taken from a separate traced pass. Lines before
// it record the run stamp (commit, Go version, nproc, GOMAXPROCS, seed,
// circuit scales), the output digest and a readable metric listing.
//
// # Workloads
//
// All load comes from this one process, with at most two workers,
// runners or clients (the two cores the figures below were measured
// on, go1.24.0).
//
//   - flow-seqatpg: core.RunCtx, the paper's whole flow (screen, step 1,
//     step 2, step 3), on s38584 at scale 0.1 and s9234 at scale 0.5,
//     each with a fresh engine cache as in one fsctest process. Step 3,
//     grouped and final sequential ATPG, takes 75-90% of the wall time,
//     with final-pass aborts at the 25,001-backtrack cap, and the Auto
//     backend runs its Event confirmation simulations here. A step-3
//     speed-up must show on this workload.
//   - flow-faultsim: core.RunCtx on s5378 at full scale with a cold
//     cache. Steps 1 and 2, sequential fault simulation and
//     combinational PODEM, take most of the wall time and step 3 is a
//     few tens of milliseconds, so a step-3 change should not move it
//     while a fault-simulation or step-2 change should.
//   - faultsim-hybrid: faultsim.RunCtx on s38584 at scale 0.5 with 256
//     seeded random cycles. Auto picks the hybrid cone-incremental
//     evaluator (sim.DeltaSeq with sim.ConeIndex); coverage stays
//     near 3.5%, so nearly every fault runs every cycle. No ATPG, no
//     fault dropping: the only workload where the hybrid evaluator does
//     the work.
//   - serve-small: an in-process serve.Server behind httptest, driven by
//     two closed-loop HTTP clients that each POST a job, read its SSE
//     stream to the done event and GET its result. The jobs are tiny
//     (screen, flow, atpg and faultsim on s1423 at scale 0.05, screen on
//     s9234 at scale 0.1, flow on s27) and the engine cache is warm, so
//     the service path dominates: HTTP, the queue, the per-job journal,
//     SSE hubs and trackers.
//
// The flows run the fixed benchmark circuits (generation seed 1, the
// circuits EXPERIMENTS reports). ATPG effort is heavy-tailed in circuit
// structure: across generation seeds 1-5, step 3 on full-scale s5378
// ranges from 22 ms to 17 s. A seeded circuit would change what the
// workload stresses from one seed to the next, so on the flows the
// workload seed only orders the circuits within a pass. On
// faultsim-hybrid it generates the random stimulus; on serve-small it
// orders the job mix and seeds each job's circuit, scan insertion and
// stimulus. The program receives only the generated inputs.
//
// # End-to-end metrics
//
// A job is one call a user makes: one circuit's flow (core.RunCtx),
// one fault simulation (faultsim.RunCtx), or one HTTP job, submit to
// result. A pass runs every job of a batch workload once; a round
// submits a fixed mix of jobs to a fresh server. wall_s is the median
// pass (the sum of its job times) or round; jobs_per_s, job_p50_ms and
// job_p99_ms are over jobs; setup_s is the median of five set-ups
// (generation, scan insertion
// and a cold artifact build through the engine.Artifacts methods; for
// serve-small, server start plus its first jobs, one of each kind in
// the mix, on a cold cache);
// peak_heap_mib is the highest live heap the garbage collector marked
// while measuring (sampled from runtime/metrics); and
// retained_mib_per_job is the heap still live after GC once a batch job
// has finished, with its cache and result still held, or once a round
// has finished, with its server still holding the jobs, divided by the
// round's jobs. Each batch job starts from a collected heap, so neither
// heap figure depends on the job order.
//
// Each round of serve-small uses a fresh server, because serve.Server
// never prunes finished jobs and each pins its 4 MiB journal: one
// server would hold gigabytes over a run. The retained heap is read
// before the round's server is torn down, so teardown cannot race the
// collection.
//
// undetected_faults, the paper's headline, is exact for a given input:
// it is reported per layer as core.undetected_faults and pinned by the
// output digest, not bounded, because it is 0 on full-scale s5378.
// failed_frac is the result line's failed over attempted (0 when
// every check passes), and check.failed_frac in the traced run.
//
// # Per-layer metrics
//
// The traced run times the benchmark's own calls into each module and
// reads what the program already exposes; it adds no instrumentation
// to the program. A layer a workload does not reach reports 0.
//
//	layer          metrics                                     should move
//	gen, tpi       gen.generate_s, tpi.insert_s                setup_s, every batch workload
//	engine         engine.artifacts_s, engine.cache_hit_ratio  setup_s on flows; job_p50_ms on serve-small
//	core           core.screen_s, core.step1_s, core.step2_s,  wall_s on the flow whose phase dominates
//	               core.step3_s, core.step3_models,
//	               core.unattributed_s, core.undetected_faults
//	atpg           atpg.comb.{calls,backtracks,aborted}        wall_s on flow-faultsim
//	seqatpg        atpg.seq.*, atpg.final.*                    wall_s on flow-seqatpg
//	faultsim, par  faultsim.pool_s, faultsim.utilization,      wall_s on faultsim-hybrid, flow-faultsim
//	               faultsim.cycles
//	sim            sim.hybrid.cone_faults,                     wall_s on faultsim-hybrid (hybrid),
//	               sim.hybrid.swept_faults, sim.event_calls,   flow-seqatpg (event)
//	               sim.compile_s
//	serve, task    serve.submit_ms, serve.queue_ms,            job_p50_ms, job_p99_ms, jobs_per_s
//	               serve.run_ms, serve.overhead_ms             on serve-small
//	journal, trace journal.events_per_job, journal.dropped,    retained_mib_per_job, peak_heap_mib
//	               trace.overhead_ratio, alloc_mib             on serve-small
//
// The core phase times are span durations from trace.Assemble over the
// run's journal; core.unattributed_s is trace.SelfNS of the span that
// holds the phases (the job in a batch run, its unit in the service),
// the flow wall time no phase covers, and the readable phase table
// beside it gives each phase's own SelfNS. gen, tpi and engine are the
// benchmark's own spans (obs.Collector.Phase) around its calls. ATPG,
// fault-simulation and sim figures are obs.Collector counters and pool
// records; on serve-small they come from the per-job metrics the
// server hands its ledger sink, and the phase spans from
// GET /api/v1/trace/{id}. serve.queue_ms is View.QueueNS, serve.run_ms
// Finished minus Started, serve.overhead_ms latency minus run time;
// each is the median over the traced round's jobs. trace.overhead_ratio
// is the traced pass's wall time over the untraced median.
//
// # Output checks
//
// Every job's output is checked; a failed, refused or wrong job counts
// in failed. Flow reports must close their fault accounting (easy =
// confirmed + escapes; step-2 detected + undetectable + undetected =
// |f_hard|; step-3 totals = step 2's undetected; the undetected list
// matches step 3's count) and their text, wall times scrubbed, must be
// identical across passes and between the traced and untraced runs.
// The faultsim-hybrid DetectedAt vector must be identical across
// passes. Each serve-small result must equal task.Run on the same spec,
// computed once in set-up. The digest printed per run hashes the
// workload's outputs, so two commits can be compared exactly: a change
// meant only for speed must leave it unchanged.
//
// # Left for later changes
//
// This benchmark adds files only under fsctbench/ and BENCHMARK.json.
// It does not delete the TestEmit* emitters or the three BENCH_*.json
// files they write, and it does not regenerate the Table 3 CPU column
// in EXPERIMENTS.md; those edits touch tests and documents outside the
// benchmark and belong to their own changes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tiny shrinks every circuit and job count for the smoke test.
	tiny bool
	// workers bounds every worker pool, runner pool and client set.
	workers int
}

// outcome is what a workload reports back to main.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	problems  []string
	digest    string
	circuits  []string // "name@scale" of every circuit the workload runs
	notes     []string // extra readable lines (layer tables)
}

// fail records one failed check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, cfg config) (*outcome, error)
}

var workloads = []workload{
	{"flow-seqatpg", "whole flow on s38584@0.1 and s9234@0.5, where step-3 sequential ATPG is most of the wall time", runFlowSeqATPG},
	{"flow-faultsim", "whole flow on full-scale s5378, where step-1/2 fault simulation dominates and step 3 is negligible", runFlowFaultSim},
	{"faultsim-hybrid", "fault simulation of 256 random cycles on s38584@0.5, the one regime where the hybrid cone evaluator does the work", runFaultSimHybrid},
	{"serve-small", "tiny jobs through the fsctd HTTP service with a warm cache, where HTTP, queue, journal and SSE dominate", runServeSmall},
}

func main() {
	name := flag.String("workload", "", "workload to run: flow-seqatpg, flow-faultsim, faultsim-hybrid, serve-small")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", defaultRunSeconds, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	desc := flag.Bool("describe", false, "print the BENCHMARK.json document and exit")
	flag.Parse()

	if *desc {
		if err := describe(os.Stdout, defaultRunSeconds); err != nil {
			fmt.Fprintln(os.Stderr, "fsctbench:", err)
			os.Exit(1)
		}
		return
	}
	var wk *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wk = &workloads[i]
		}
	}
	if wk == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "fsctbench: need --workload (one of flow-seqatpg, flow-faultsim, faultsim-hybrid, serve-small), --seconds > 0 and --trace 0 or 1\n")
		os.Exit(2)
	}

	// At most two workers, runners and clients, so a larger machine
	// carries the same load as the two-core figures above.
	workers := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(workers)
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		workers: workers,
	}
	// A job that hangs fails its check instead of holding the run past
	// the time a benchmark run is allowed.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := run(ctx, *wk, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsctbench: %s: %v\n", wk.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsctbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// defaultRunSeconds is the measuring time BENCHMARK.json asks for.
const defaultRunSeconds = 15

// runDeadline bounds a whole run, set-up and traced pass included.
const runDeadline = 150 * time.Second

// run executes one workload and prints the readable lines; the caller
// prints the result line.
func run(ctx context.Context, wk workload, cfg config, w io.Writer) (*result, error) {
	out, err := wk.run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// The stamp is plain strings and numbers; encoding it cannot fail.
	stampLine, _ := json.Marshal(newStamp(wk.name, cfg, out.circuits))
	fmt.Fprintf(w, "stamp %s\n", stampLine)
	fmt.Fprintf(w, "digest %s %s\n", wk.name, out.digest)
	for _, p := range out.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	failedFrac := float64(out.failed) / float64(max(out.attempted, 1))
	if cfg.trace {
		out.layers["check.failed_frac"] = failedFrac
		res.Metrics = collect(perLayer, out.layers)
	} else {
		res.Metrics = collect(endToEnd, out.e2e)
	}
	fmt.Fprintf(w, "%s: %d attempted, %d failed (failed_frac %.4f)\n", wk.name, out.attempted, out.failed, failedFrac)
	printTable(w, res.Metrics)
	return res, nil
}
