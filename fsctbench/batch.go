package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/journal"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/task"
	"repro/internal/tpi"
	"repro/internal/trace"
)

// circuitSeed generates the fixed benchmark circuits: the default seed
// of every CLI, and the circuits EXPERIMENTS reports.
const circuitSeed = 1

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// circuitRef names one circuit at one scale.
type circuitRef struct {
	name  string
	scale float64
}

func (c circuitRef) String() string { return fmt.Sprintf("%s@%g", c.name, c.scale) }

// jobOut is one job's checked output.
type jobOut struct {
	text       string   // canonical text, compared across passes
	undetected int      // undetected faults in the result
	problems   []string // failed consistency checks
	// split is a flow report's own phase timing: ScreenCPU, Step2.CPU
	// and Step3.CPU, in seconds.
	split [3]float64
}

// batchJob is one call into the library that a pass makes.
type batchJob struct {
	name string
	run  func(ctx context.Context, cache *engine.Cache, col *obs.Collector) (jobOut, error)
}

// setupLayer maps the benchmark's own set-up spans to layer metrics.
var setupLayer = map[string]string{
	"gen":    "gen.generate_s",
	"tpi":    "tpi.insert_s",
	"engine": "engine.artifacts_s",
}

// setupFunc builds a batch workload's jobs. col is nil untraced; traced,
// the set-up's own spans go to it.
type setupFunc func(cfg config, col *obs.Collector) ([]batchJob, error)

// durToken matches the bracketed wall times in a flow report, the only
// bytes that differ between identical runs.
var durToken = regexp.MustCompile(`\[[^\[\]]*s\]`)

func scrub(s string) string { return durToken.ReplaceAllString(s, "[x]") }

// scaled returns the circuit at the tiny smoke-test scale when asked.
func scaled(cfg config, c circuitRef) circuitRef {
	if cfg.tiny {
		c.scale = min(c.scale, 0.04)
	}
	return c
}

// generate builds a circuit under a "gen" span.
func generate(col *obs.Collector, ref circuitRef) (*netlist.Circuit, error) {
	p, err := gen.ProfileByName(ref.name)
	if err != nil {
		return nil, err
	}
	if ref.scale < 1 {
		p = p.Scale(ref.scale)
	}
	sp := col.Phase("gen")
	c := gen.Generate(p, circuitSeed)
	sp.End()
	return c, nil
}

// insertScan runs scan insertion under a "tpi" span, with the chain
// count and seed every CLI uses.
func insertScan(col *obs.Collector, c *netlist.Circuit) (*scan.Design, error) {
	sp := col.Phase("tpi")
	d, err := tpi.Insert(c, tpi.Options{NumChains: task.DefaultChains(len(c.FFs)), Seed: circuitSeed})
	sp.End()
	return d, err
}

// buildFlowArtifacts builds, cold and under an "engine" span, every
// artifact the flow draws from the cache.
func buildFlowArtifacts(col *obs.Collector, d *scan.Design) error {
	sp := col.Phase("engine")
	defer sp.End()
	cache := engine.New()
	a := cache.For(d.C)
	a.Program(nil)
	a.CollapsedFaults()
	cm, err := a.CombModel()
	if err != nil {
		return err
	}
	fixed := make(map[netlist.SignalID]logic.V, len(d.Assignments))
	for k, v := range d.Assignments {
		fixed[k] = v
	}
	if _, _, err := a.CombSearch(fixed); err != nil {
		return err
	}
	cache.For(cm.C).Program(nil)
	return nil
}

// flowSetup generates the circuits, inserts scan and builds the cold
// artifacts, then returns one core.RunCtx job per circuit.
func flowSetup(circuits ...circuitRef) setupFunc {
	return func(cfg config, col *obs.Collector) ([]batchJob, error) {
		var jobs []batchJob
		for _, ref := range circuits {
			ref = scaled(cfg, ref)
			c, err := generate(col, ref)
			if err != nil {
				return nil, err
			}
			d, err := insertScan(col, c)
			if err != nil {
				return nil, err
			}
			if err := buildFlowArtifacts(col, d); err != nil {
				return nil, err
			}
			jobs = append(jobs, batchJob{name: ref.String(), run: flowJob(d, cfg.workers)})
		}
		return jobs, nil
	}
}

func flowJob(d *scan.Design, workers int) func(context.Context, *engine.Cache, *obs.Collector) (jobOut, error) {
	return func(ctx context.Context, cache *engine.Cache, col *obs.Collector) (jobOut, error) {
		rep, err := core.RunCtx(ctx, d, core.Params{Workers: workers, Engine: cache, Obs: col})
		if err != nil {
			return jobOut{}, err
		}
		return jobOut{
			text:       scrub(core.FormatReport(rep)),
			undetected: rep.Undetected(),
			problems:   checkAccounting(rep),
			split:      [3]float64{rep.ScreenCPU.Seconds(), rep.Step2.CPU.Seconds(), rep.Step3.CPU.Seconds()},
		}, nil
	}
}

// checkAccounting verifies that a flow report's fault counts close.
func checkAccounting(r *core.Report) []string {
	var bad []string
	if r.Easy != r.EasyConfirmed+r.EasyEscapes {
		bad = append(bad, fmt.Sprintf("%s: easy %d != confirmed %d + escapes %d", r.Circuit, r.Easy, r.EasyConfirmed, r.EasyEscapes))
	}
	if hard, s2 := r.Hard+r.EasyEscapes, r.Step2.Detected+r.Step2.Undetectable+r.Step2.Undetected; s2 != hard {
		bad = append(bad, fmt.Sprintf("%s: step 2 accounts for %d faults, |f_hard| is %d", r.Circuit, s2, hard))
	}
	if s3 := r.Step3.Detected + r.Step3.Undetectable + r.Step3.Undetected; s3 != r.Step2.Undetected {
		bad = append(bad, fmt.Sprintf("%s: step 3 accounts for %d faults, step 2 left %d", r.Circuit, s3, r.Step2.Undetected))
	}
	if r.Undetected() != r.Step3.Undetected {
		bad = append(bad, fmt.Sprintf("%s: %d undetected faults listed, step 3 reports %d", r.Circuit, r.Undetected(), r.Step3.Undetected))
	}
	return bad
}

func runFlowSeqATPG(ctx context.Context, cfg config) (*outcome, error) {
	return runBatch(ctx, cfg, flowSetup(circuitRef{"s38584", 0.1}, circuitRef{"s9234", 0.5}))
}

func runFlowFaultSim(ctx context.Context, cfg config) (*outcome, error) {
	return runBatch(ctx, cfg, flowSetup(circuitRef{"s5378", 1}))
}

// hybridCycles is the faultsim-hybrid stimulus length.
const hybridCycles = 256

func runFaultSimHybrid(ctx context.Context, cfg config) (*outcome, error) {
	return runBatch(ctx, cfg, func(cfg config, col *obs.Collector) ([]batchJob, error) {
		ref := scaled(cfg, circuitRef{"s38584", 0.5})
		c, err := generate(col, ref)
		if err != nil {
			return nil, err
		}
		sp := col.Phase("engine")
		a := engine.New().For(c)
		a.Program(nil)
		a.CollapsedFaults()
		a.Cones(nil)
		sp.End()
		seq := task.RandomSequence(c, cfg.seed, hybridCycles)
		return []batchJob{{name: ref.String(), run: func(ctx context.Context, cache *engine.Cache, col *obs.Collector) (jobOut, error) {
			faults := cache.For(c).CollapsedFaults()
			res, err := faultsim.RunCtx(ctx, c, seq, faults, faultsim.Options{Workers: cfg.workers, Cache: cache, Obs: col})
			if err != nil {
				return jobOut{}, err
			}
			h := sha256.New()
			for _, at := range res.DetectedAt {
				fmt.Fprintf(h, "%d,", at)
			}
			undet := len(res.Undetected())
			return jobOut{
				text: fmt.Sprintf("%s: %d cycles, detected %d/%d, DetectedAt sha256 %x\n",
					ref, len(seq), len(faults)-undet, len(faults), h.Sum(nil)),
				undetected: undet,
			}, nil
		}}}, nil
	})
}

// runBatch times set-up, then runs passes over the jobs until the
// measuring time is used, then (traced) one more pass with a collector
// and journal per job.
func runBatch(ctx context.Context, cfg config, setup setupFunc) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}

	var jobs []batchJob
	var setupS []float64
	setupLayers := map[string][]float64{}
	for r := 0; r < setupReps; r++ {
		var col *obs.Collector
		var rec *journal.Recorder
		if cfg.trace {
			col, rec = obs.New(), journal.New(0)
			col.SetJournal(rec)
		}
		t0 := time.Now()
		js, err := setup(cfg, col)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		jobs = js
		if cfg.trace {
			spans := trace.Assemble(trace.NewContext(), trace.SpanID{}, "setup", rec.Snapshot(), rec.Elapsed().Nanoseconds())
			rep := map[string]float64{}
			for _, s := range spans[1:] {
				rep[setupLayer[s.Name]] += float64(s.DurNS()) / 1e9
			}
			for _, name := range setupLayer {
				setupLayers[name] = append(setupLayers[name], rep[name])
			}
		}
	}
	out.e2e["setup_s"] = median(setupS)
	for k, v := range setupLayers {
		out.layers[k] = median(v)
	}
	for _, j := range jobs {
		out.circuits = append(out.circuits, j.name)
	}

	// The seed orders the jobs within every pass.
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(jobs))
	ref := make([]string, len(jobs))
	check := func(i int, o jobOut, err error) {
		out.attempted++
		switch {
		case err != nil:
			out.fail("%s: %v", jobs[i].name, err)
		case len(o.problems) > 0:
			out.fail("%s", strings.Join(o.problems, "; "))
		case ref[i] == "":
			ref[i] = o.text
		case o.text != ref[i]:
			out.fail("%s: output differs from the first pass", jobs[i].name)
		}
	}

	var passWalls, lats, retained []float64
	var splits [3][]float64
	heap := startHeapSampler(2 * time.Millisecond)
	start := time.Now()
	for {
		// Every job starts from a collected heap, and its retained heap
		// is read with its cache and result still held, before the next
		// job starts: neither figure then depends on the job order.
		pass := 0.0
		var split [3]float64
		for _, i := range order {
			base := liveHeap()
			cache := engine.New()
			t0 := time.Now()
			o, err := jobs[i].run(ctx, cache, nil)
			lat := time.Since(t0)
			retained = append(retained, (float64(liveHeap())-float64(base))/mib)
			runtime.KeepAlive(cache)
			lats = append(lats, ms(lat))
			pass += lat.Seconds()
			for k := range split {
				split[k] += o.split[k]
			}
			check(i, o, err)
		}
		passWalls = append(passWalls, pass)
		for k := range splits {
			splits[k] = append(splits[k], split[k])
		}
		// Start another pass only if it would end nearer the measuring
		// time than stopping now.
		if time.Since(start).Seconds()+median(passWalls)/2 > cfg.seconds.Seconds() {
			break
		}
	}
	out.e2e["peak_heap_mib"] = heap.Stop()
	out.notes = append(out.notes, fmt.Sprintf("  passes (s): %.4f", passWalls))
	if median(splits[0]) > 0 {
		out.notes = append(out.notes, fmt.Sprintf("  report CPU split, median pass: screen %.4f s  step 2 %.4f s  step 3 %.4f s",
			median(splits[0]), median(splits[1]), median(splits[2])))
	}
	out.e2e["wall_s"] = median(passWalls)
	out.e2e["jobs_per_s"] = float64(len(lats)) / sum(passWalls)
	out.e2e["job_p50_ms"] = median(lats)
	out.e2e["job_p99_ms"] = quantile(lats, 0.99)
	out.e2e["retained_mib_per_job"] = median(retained)

	if cfg.trace {
		var tracedWall float64
		var allocs uint64
		for _, i := range order {
			o, wall, alloc, err := tracedJob(ctx, jobs[i], out.layers)
			tracedWall += wall
			allocs += alloc
			check(i, o, err)
		}
		out.layers["trace.overhead_ratio"] = tracedWall / median(passWalls)
		out.layers["alloc_mib"] = float64(allocs) / mib
		out.layers["journal.events_per_job"] /= float64(len(jobs))
		finishUtilization(out.layers)
		out.notes = append(out.notes, layerTable(out.layers)...)
	}

	h := sha256.New()
	for i := range jobs {
		fmt.Fprintf(h, "%s\n%s", jobs[i].name, ref[i])
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// tracedJob runs one job with a collector and journal attached and a
// fresh cache, and adds what they recorded to the layer metrics. It
// returns the job's output, its wall time in seconds and the bytes it
// allocated.
func tracedJob(ctx context.Context, j batchJob, layers map[string]float64) (jobOut, float64, uint64, error) {
	a0 := allocBytes()
	col, rec := obs.New(), journal.New(0)
	col.SetJournal(rec)
	cache := engine.New()
	t0 := time.Now()
	o, err := j.run(ctx, cache, col)
	wall := time.Since(t0).Seconds()
	alloc := allocBytes() - a0
	if err != nil {
		return o, wall, alloc, err
	}
	spans := trace.Assemble(trace.NewContext(), trace.SpanID{}, j.name, rec.Snapshot(), rec.Elapsed().Nanoseconds())
	// The root span starts at the recorder's origin; start it at the
	// call instead, so building the recorder is not counted.
	spans[0].StartNS = t0.Sub(rec.Origin()).Nanoseconds()
	addPhaseLayers(layers, spans)
	addCounterLayers(layers, col.Snapshot())
	st := cache.Stats()
	addHitRatio(layers, st.Hits, st.Misses)
	layers["journal.events_per_job"] += float64(rec.Len())
	layers["journal.dropped"] += float64(rec.Dropped())
	layers["core.undetected_faults"] += float64(o.undetected)
	return o, wall, alloc, nil
}

// phaseLayer maps the flow's phase span names to layer metrics.
var phaseLayer = map[string]string{
	"screen":            "core.screen_s",
	"step1.alternating": "core.step1_s",
	"step2":             "core.step2_s",
	"step3":             "core.step3_s",
}

// addPhaseLayers adds the core phase durations of one assembled job
// trace. When the job ran the flow, the self time of the span holding
// the phases (the job's root in a batch run, its unit span in the
// service) is the flow wall time no phase covers: core.unattributed_s.
func addPhaseLayers(layers map[string]float64, spans []trace.Span) {
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		holds := false
		for _, c := range n.Children {
			if name, ok := phaseLayer[c.Span.Name]; ok && c.Span.Kind == trace.SpanPhase {
				layers[name] += float64(c.Span.DurNS()) / 1e9
				layers[selfPrefix+name] += float64(trace.SelfNS(c)) / 1e9
				holds = true
			}
		}
		if holds {
			layers["core.unattributed_s"] += float64(trace.SelfNS(n)) / 1e9
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if root := trace.BuildTree(spans); root != nil {
		walk(root)
	}
}

// selfPrefix keys a phase's self time (its wall time minus the pool
// and ATPG spans inside it) in the layer map; layerTable prints it.
const selfPrefix = "_self."

// layerTable renders the flow phases' wall and self times as readable
// lines, in flow order; nil when no flow ran.
func layerTable(layers map[string]float64) []string {
	if layers["core.screen_s"] == 0 {
		return nil
	}
	lines := []string{"  phase                      wall_s       self_s"}
	for _, name := range []string{"core.screen_s", "core.step1_s", "core.step2_s", "core.step3_s"} {
		lines = append(lines, fmt.Sprintf("  %-22s %10.4f   %10.4f", name, layers[name], layers[selfPrefix+name]))
	}
	return append(lines, fmt.Sprintf("  %-22s %10.4f", "core.unattributed_s", layers["core.unattributed_s"]))
}

// counterLayer maps obs counters to layer metrics.
var counterLayer = map[string]string{
	"atpg.comb.generated":          "atpg.comb.calls",
	"atpg.comb.backtracks":         "atpg.comb.backtracks",
	"atpg.comb.aborted":            "atpg.comb.aborted",
	"atpg.seq.generated":           "atpg.seq.calls",
	"atpg.seq.backtracks":          "atpg.seq.backtracks",
	"atpg.seq.aborted":             "atpg.seq.aborted",
	"atpg.final.generated":         "atpg.final.calls",
	"atpg.final.backtracks":        "atpg.final.backtracks",
	"atpg.final.aborted":           "atpg.final.aborted",
	"step3.models":                 "core.step3_models",
	"step3.final_models":           "core.step3_models",
	"faultsim.cycles":              "faultsim.cycles",
	"faultsim.hybrid.cone_faults":  "sim.hybrid.cone_faults",
	"faultsim.hybrid.swept_faults": "sim.hybrid.swept_faults",
	"faultsim.eval.event":          "sim.event_calls",
}

// addCounterLayers adds one job's counters and fault-simulation pool
// records to the layer metrics. Pool busy and capacity are summed under
// private keys; finishUtilization turns them into the ratio.
func addCounterLayers(layers map[string]float64, m *obs.Metrics) {
	for ctr, name := range counterLayer {
		layers[name] += float64(m.Counters[ctr])
	}
	layers["sim.compile_s"] += float64(m.Counters["sim.compile.ns"]) / 1e9
	for name, p := range m.Pools {
		if name != "faultsim" && !strings.HasPrefix(name, "faultsim.") {
			continue
		}
		layers["faultsim.pool_s"] += float64(p.WallNS) / 1e9
		for _, w := range p.Workers {
			layers[busyKey] += float64(w.BusyNS)
		}
		layers[capKey] += float64(p.WallNS) * float64(len(p.Workers))
	}
}

const (
	busyKey = "_pool_busy_ns"
	capKey  = "_pool_cap_ns"
	hitKey  = "_cache_hits"
	missKey = "_cache_misses"
)

func addHitRatio(layers map[string]float64, hits, misses int64) {
	layers[hitKey] += float64(hits)
	layers[missKey] += float64(misses)
}

// finishUtilization turns the summed private keys into ratios.
func finishUtilization(layers map[string]float64) {
	if c := layers[capKey]; c > 0 {
		layers["faultsim.utilization"] = layers[busyKey] / c
	}
	if n := layers[hitKey] + layers[missKey]; n > 0 {
		layers["engine.cache_hit_ratio"] = layers[hitKey] / n
	}
}
