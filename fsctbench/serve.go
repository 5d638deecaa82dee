package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/trace"
)

// serveMix is the job mix of every serve-small round.
var serveMix = []circuitJob{
	{task.KindScreen, circuitRef{"s1423", 0.05}},
	{task.KindFlow, circuitRef{"s1423", 0.05}},
	{task.KindATPG, circuitRef{"s1423", 0.05}},
	{task.KindFaultSim, circuitRef{"s1423", 0.05}},
	{task.KindScreen, circuitRef{"s9234", 0.1}},
	{task.KindFlow, circuitRef{"s27", 1}},
}

// mixRepeats is how many times a round submits the mix: 24 jobs, about
// 110 MiB of retained journals, on one fresh server.
const mixRepeats = 4

type circuitJob struct {
	kind string
	ref  circuitRef
}

// serveSpecs builds the spec of each job in the mix. The circuits are
// the fixed benchmark circuits, as on the flows; the faultsim job
// carries its stimulus inline, generated from the workload seed. Each
// job uses one worker, so the two runners never ask for more than two
// cores.
func serveSpecs(cfg config) ([]task.Spec, error) {
	specs := make([]task.Spec, len(serveMix))
	for i, cj := range serveMix {
		ref := cj.ref
		if ref.name != "s27" {
			ref = scaled(cfg, ref)
		}
		sp := task.Spec{Kind: cj.kind, Circuit: ref.name, Seed: circuitSeed, Workers: 1}
		if ref.scale < 1 {
			sp.Scale = ref.scale
		}
		if cj.kind == task.KindFaultSim {
			c, err := sp.BuildCircuit()
			if err != nil {
				return nil, err
			}
			var b strings.Builder
			if err := faultsim.WriteSequence(&b, c, task.RandomSequence(c, cfg.seed, serveCycles)); err != nil {
				return nil, err
			}
			sp.Sequence = b.String()
		}
		specs[i] = sp
	}
	return specs, nil
}

// serveCycles is the length of the faultsim job's stimulus.
const serveCycles = 500

// jobResult is what a client saw of one job.
type jobResult struct {
	mix     int
	latency time.Duration
	submit  time.Duration
	view    serve.View
	output  string
	spans   []trace.Span
	err     error
}

// client drives the server's HTTP API the way a user would.
type client struct {
	http *http.Client
	base string
}

func (c client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.http.Do(req)
}

// readAll reads and closes a response body, failing on an unexpected
// status.
func readAll(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s: status %d: %s", resp.Request.URL.Path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// runJob submits one job, follows its SSE stream to the done event and
// fetches its result (and, traced, its span tree).
func (c client) runJob(ctx context.Context, sp task.Spec, traced bool) jobResult {
	var r jobResult
	body, err := json.Marshal(sp)
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	resp, err := c.do(ctx, http.MethodPost, "/api/v1/jobs", body)
	if err != nil {
		r.err = err
		return r
	}
	b, err := readAll(resp, http.StatusAccepted)
	if err != nil {
		r.err = err
		return r
	}
	r.submit = time.Since(t0)
	var v serve.View
	if err := json.Unmarshal(b, &v); err != nil {
		r.err = err
		return r
	}
	if r.view, r.err = c.follow(ctx, v.ID); r.err != nil {
		return r
	}
	resp, err = c.do(ctx, http.MethodGet, "/api/v1/jobs/"+v.ID+"/result", nil)
	if err != nil {
		r.err = err
		return r
	}
	if b, r.err = readAll(resp, http.StatusOK); r.err != nil {
		return r
	}
	r.output = string(b)
	r.latency = time.Since(t0)
	if traced {
		resp, err := c.do(ctx, http.MethodGet, "/api/v1/trace/"+v.ID, nil)
		if err != nil {
			r.err = err
			return r
		}
		defer resp.Body.Close()
		tr, err := trace.ReadOTLP(resp.Body)
		if err != nil {
			r.err = fmt.Errorf("trace of %s: %w", v.ID, err)
			return r
		}
		r.spans = tr.Spans
	}
	return r
}

// follow reads a job's SSE stream until the done event and returns the
// job view it carries.
func (c client) follow(ctx context.Context, id string) (serve.View, error) {
	var v serve.View
	resp, err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(line[len("data: "):]), &v); err != nil {
				return v, err
			}
			// Drain the rest so the connection can be reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			if v.Status != serve.StatusDone {
				return v, fmt.Errorf("job %s ended %s: %s", id, v.Status, v.Error)
			}
			return v, nil
		}
	}
	if err := sc.Err(); err != nil {
		return v, err
	}
	return v, fmt.Errorf("events of %s ended without a done event", id)
}

// ledgerSink keeps the per-job metrics the server reports when a job
// finishes.
type ledgerSink struct {
	mu   sync.Mutex
	recs []ledger.Record
}

func (s *ledgerSink) AppendRun(rec ledger.Record, _ int, _ time.Duration) error {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
	return nil
}

// round is one server's worth of jobs.
type round struct {
	wall     time.Duration
	retained float64 // MiB per job
	alloc    uint64
	jobs     []jobResult
	recs     []ledger.Record
}

// runRound starts a fresh server on the shared cache, lets
// cfg.workers closed-loop clients work through the jobs, reads the
// retained heap while the server still holds them, and tears it down.
func runRound(ctx context.Context, cfg config, cache *engine.Cache, specs []task.Spec, jobs []int, traced bool) round {
	var sink *ledgerSink
	scfg := serve.Config{Runners: cfg.workers, Cache: cache}
	if traced {
		sink = &ledgerSink{}
		scfg.Ledger = sink
	}
	base := liveHeap()
	srv := serve.New(scfg)
	hs := httptest.NewServer(srv.Handler())
	c := client{http: hs.Client(), base: hs.URL}

	res := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	a0 := allocBytes()
	t0 := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				res[i] = c.runJob(ctx, specs[jobs[i]], traced)
				res[i].mix = jobs[i]
			}
		}()
	}
	wg.Wait()
	r := round{wall: time.Since(t0), alloc: allocBytes() - a0, jobs: res}
	r.retained = (float64(liveHeap()) - float64(base)) / mib / float64(len(jobs))
	hs.Close()
	srv.Close() // waits for the runners, so every ledger record is in
	if sink != nil {
		r.recs = sink.recs
	}
	return r
}

// serveSetup times one server start plus its first jobs, one of each
// in the mix, on a cold cache.
func serveSetup(ctx context.Context, cfg config, specs []task.Spec) (float64, error) {
	t0 := time.Now()
	srv := serve.New(serve.Config{Runners: cfg.workers, Cache: engine.New()})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	c := client{http: hs.Client(), base: hs.URL}
	for _, sp := range specs {
		if r := c.runJob(ctx, sp, false); r.err != nil {
			return 0, r.err
		}
	}
	return time.Since(t0).Seconds(), nil
}

func runServeSmall(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	specs, err := serveSpecs(cfg)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	for r := 0; r < setupReps; r++ {
		s, err := serveSetup(ctx, cfg, specs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, s)
	}
	out.e2e["setup_s"] = median(setupS)

	// References, computed once through task.Run; they also warm the
	// cache every round shares.
	cache := engine.New()
	refs := make([]string, len(serveMix))
	for i, cj := range serveMix {
		sp := specs[i]
		res, err := task.Run(ctx, sp, cache, nil)
		if err != nil {
			return nil, fmt.Errorf("reference %s %s: %w", cj.kind, cj.ref, err)
		}
		refs[i] = scrub(res.Output)
		scale := sp.Scale
		if scale == 0 {
			scale = 1
		}
		out.circuits = append(out.circuits, fmt.Sprintf("%s %s@%g", sp.Kind, sp.Circuit, scale))
	}

	repeats := mixRepeats
	if cfg.tiny {
		repeats = 1
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	nextRound := func() []int {
		var jobs []int
		for k := 0; k < repeats; k++ {
			jobs = append(jobs, rng.Perm(len(serveMix))...)
		}
		return jobs
	}
	check := func(r jobResult) {
		out.attempted++
		switch {
		case r.err != nil:
			out.fail("%s %s: %v", serveMix[r.mix].kind, serveMix[r.mix].ref, r.err)
		case scrub(r.output) != refs[r.mix]:
			out.fail("%s %s: result differs from task.Run", serveMix[r.mix].kind, serveMix[r.mix].ref)
		}
	}

	var walls, lats, retained []float64
	byMix := make([][]float64, len(serveMix))
	heap := startHeapSampler(2 * time.Millisecond)
	start := time.Now()
	for {
		r := runRound(ctx, cfg, cache, specs, nextRound(), false)
		walls = append(walls, r.wall.Seconds())
		retained = append(retained, r.retained)
		for _, j := range r.jobs {
			check(j)
			if j.err == nil {
				lats = append(lats, ms(j.latency))
				byMix[j.mix] = append(byMix[j.mix], ms(j.latency))
			}
		}
		if time.Since(start).Seconds()+median(walls)/2 > cfg.seconds.Seconds() {
			break
		}
	}
	out.e2e["peak_heap_mib"] = heap.Stop()
	out.e2e["wall_s"] = median(walls)
	out.e2e["jobs_per_s"] = float64(len(lats)) / sum(walls)
	out.e2e["job_p50_ms"] = median(lats)
	out.e2e["job_p99_ms"] = quantile(lats, 0.99)
	out.e2e["retained_mib_per_job"] = median(retained)
	for i, cj := range serveMix {
		out.notes = append(out.notes, fmt.Sprintf("  %-8s %-12s %5d jobs  p50 %8.3f ms  p99 %8.3f ms",
			cj.kind, cj.ref, len(byMix[i]), median(byMix[i]), quantile(byMix[i], 0.99)))
	}

	if cfg.trace {
		before := cache.Stats()
		r := runRound(ctx, cfg, cache, specs, nextRound(), true)
		after := cache.Stats()
		addHitRatio(out.layers, after.Hits-before.Hits, after.Misses-before.Misses)
		serveLayers(out.layers, r)
		out.layers["trace.overhead_ratio"] = r.wall.Seconds() / median(walls)
		for _, j := range r.jobs {
			check(j)
		}
		finishUtilization(out.layers)
		out.notes = append(out.notes, layerTable(out.layers)...)
	}

	h := sha256.New()
	for i, cj := range serveMix {
		fmt.Fprintf(h, "%s %s\n%s", cj.kind, cj.ref, refs[i])
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}

// serveLayers derives the per-layer metrics of a traced round: the
// service timings from each job's view, the phase spans from its trace
// and the counters from the metrics the server reported per job.
func serveLayers(layers map[string]float64, r round) {
	var submit, queue, run, overhead, events []float64
	for _, j := range r.jobs {
		if j.err != nil || j.view.Started == nil || j.view.Finished == nil {
			continue
		}
		runT := j.view.Finished.Sub(*j.view.Started)
		submit = append(submit, ms(j.submit))
		queue = append(queue, float64(j.view.QueueNS)/1e6)
		run = append(run, ms(runT))
		overhead = append(overhead, ms(j.latency-runT))
		events = append(events, float64(j.view.Events))
		addPhaseLayers(layers, j.spans)
	}
	layers["serve.submit_ms"] = median(submit)
	layers["serve.queue_ms"] = median(queue)
	layers["serve.run_ms"] = median(run)
	layers["serve.overhead_ms"] = median(overhead)
	layers["journal.events_per_job"] = sum(events) / float64(max(len(events), 1))
	layers["alloc_mib"] = float64(r.alloc) / mib
	for _, rec := range r.recs {
		m := metricsFromFlat(rec.Metrics)
		addCounterLayers(layers, m)
		layers["journal.dropped"] += float64(m.Counters["journal.dropped_events"])
		if rec.Server != nil && rec.Server.Kind == task.KindFlow {
			layers["core.undetected_faults"] += rec.Metrics["undetected"]
		}
	}
}

// metricsFromFlat rebuilds the counters and pool records of an
// obs.Metrics from its flattened ledger form ("counters.<name>",
// "pools.<name>.wall_ns", "pools.<name>.workers.<i>.busy_ns").
func metricsFromFlat(flat map[string]float64) *obs.Metrics {
	m := &obs.Metrics{Counters: map[string]int64{}, Pools: map[string]obs.PoolMetric{}}
	busy := map[string][]obs.WorkerMetric{}
	for k, v := range flat {
		switch {
		case strings.HasPrefix(k, "counters."):
			m.Counters[strings.TrimPrefix(k, "counters.")] = int64(v)
		case strings.HasPrefix(k, "pools.") && strings.HasSuffix(k, ".busy_ns"):
			rest := strings.TrimPrefix(k, "pools.")
			if i := strings.Index(rest, ".workers."); i >= 0 {
				busy[rest[:i]] = append(busy[rest[:i]], obs.WorkerMetric{BusyNS: int64(v)})
			}
		case strings.HasPrefix(k, "pools.") && strings.HasSuffix(k, ".wall_ns"):
			name := strings.TrimSuffix(strings.TrimPrefix(k, "pools."), ".wall_ns")
			p := m.Pools[name]
			p.WallNS = int64(v)
			m.Pools[name] = p
		}
	}
	for name, ws := range busy {
		p := m.Pools[name]
		p.Workers = ws
		m.Pools[name] = p
	}
	return m
}
