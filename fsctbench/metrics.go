package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric the benchmark reports. End-to-end metrics
// carry a regression bound; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // share of the parent's median; end-to-end only
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off; every workload reports every one of them. The package
// comment defines each. The timing bounds are the largest allowed
// because runs of the same input on a shared two-core machine spread
// by up to 20%; the heap figures repeat to within 1%.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_heap_mib", "MiB", "lower", 0.10},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p99_ms", "ms", "lower", 0.25},
	{"retained_mib_per_job", "MiB", "lower", 0.05},
}

// perLayer are measured in the separate traced run. A workload that
// does not reach a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "tpi.insert_s", Unit: "s", Better: "lower"},
	{Name: "engine.artifacts_s", Unit: "s", Better: "lower"},
	{Name: "engine.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.screen_s", Unit: "s", Better: "lower"},
	{Name: "core.step1_s", Unit: "s", Better: "lower"},
	{Name: "core.step2_s", Unit: "s", Better: "lower"},
	{Name: "core.step3_s", Unit: "s", Better: "lower"},
	{Name: "core.step3_models", Unit: "count", Better: "lower"},
	{Name: "core.unattributed_s", Unit: "s", Better: "lower"},
	{Name: "core.undetected_faults", Unit: "count", Better: "lower"},
	{Name: "atpg.comb.calls", Unit: "count", Better: "lower"},
	{Name: "atpg.comb.backtracks", Unit: "count", Better: "lower"},
	{Name: "atpg.comb.aborted", Unit: "count", Better: "lower"},
	{Name: "atpg.seq.calls", Unit: "count", Better: "lower"},
	{Name: "atpg.seq.backtracks", Unit: "count", Better: "lower"},
	{Name: "atpg.seq.aborted", Unit: "count", Better: "lower"},
	{Name: "atpg.final.calls", Unit: "count", Better: "lower"},
	{Name: "atpg.final.backtracks", Unit: "count", Better: "lower"},
	{Name: "atpg.final.aborted", Unit: "count", Better: "lower"},
	{Name: "faultsim.pool_s", Unit: "s", Better: "lower"},
	{Name: "faultsim.utilization", Unit: "ratio", Better: "higher"},
	{Name: "faultsim.cycles", Unit: "count", Better: "lower"},
	{Name: "sim.hybrid.cone_faults", Unit: "count", Better: "higher"},
	{Name: "sim.hybrid.swept_faults", Unit: "count", Better: "lower"},
	{Name: "sim.event_calls", Unit: "count", Better: "lower"},
	{Name: "sim.compile_s", Unit: "s", Better: "lower"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.events_per_job", Unit: "count", Better: "lower"},
	{Name: "journal.dropped", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "alloc_mib", Unit: "MiB", Better: "lower"},
	{Name: "check.failed_frac", Unit: "ratio", Better: "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect picks the defined metrics out of vals, in definition order.
// A metric the workload did not set is reported as 0.
func collect(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// printTable writes the metrics one per line, name, value and unit.
func printTable(w io.Writer, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// describe writes the BENCHMARK.json document for this benchmark: the
// command, the workloads and every metric with its unit and bound.
func describe(w io.Writer, runSeconds int) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "fsctbench/run.sh"},
		Paths:      []string{"fsctbench"},
		RunSeconds: runSeconds,
	}
	for _, wk := range workloads {
		doc.Workloads = append(doc.Workloads, wl{wk.name, wk.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
