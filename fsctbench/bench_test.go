package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkDoc is the part of BENCHMARK.json the smoke test checks.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDescribeMatchesBenchmarkJSON pins BENCHMARK.json to the metric
// and workload tables: regenerate it with --describe after editing them.
func TestDescribeMatchesBenchmarkJSON(t *testing.T) {
	var b bytes.Buffer
	if err := describe(&b, defaultRunSeconds); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), string(readBenchmarkJSON(t)); got != want {
		t.Fatalf("BENCHMARK.json is stale; regenerate with:\n  bash fsctbench/run.sh --describe > BENCHMARK.json\ngot:\n%s", got)
	}
}

// TestEveryMetricPrinted runs each workload at tiny scale, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json names, each with its unit, and that every check passed.
func TestEveryMetricPrinted(t *testing.T) {
	var doc benchmarkDoc
	if err := json.Unmarshal(readBenchmarkJSON(t), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	e2e := map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, wk := range workloads {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layers
			}
			cfg := config{seed: 3, seconds: 10 * time.Millisecond, trace: traced, tiny: true, workers: 2}
			res, err := run(context.Background(), wk, cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wk.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wk.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", wk.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", wk.name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: metric %s printed in %q, BENCHMARK.json says %q", wk.name, traced, name, got.Unit, unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: result line: %v", wk.name, traced, err)
			}
		}
	}
}
