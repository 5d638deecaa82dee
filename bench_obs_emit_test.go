package fsct

// TestEmitObsBench writes BENCH_obs.json: the BenchmarkObsOverhead*
// tiers (instrumentation off / on / journal / trace) measured for screening,
// fault simulation and the full flow, so the <2% disabled-overhead
// contract has a committed trajectory cmd/benchdiff can gate (the CI
// job runs it warn-only).
//
// It is opt-in — the measurement loop takes a while and pins the CPU —
// so a plain `go test ./...` skips it:
//
//	FSCT_EMIT_BENCH=1 go test -run TestEmitObsBench .

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/faultsim"
)

type benchMeasure struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

func measure(f func()) benchMeasure {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	return benchMeasure{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func mustBenchDesign(t *testing.T, name string) *Design {
	t.Helper()
	p := MustProfile(name).Scale(benchScale)
	c := GenerateCircuit(p, 1)
	d, err := InsertScan(c, ScanOptions{NumChains: DefaultChains(len(c.FFs)), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// obsTiers is one engine measured at the three instrumentation tiers.
type obsTiers struct {
	Name    string       `json:"name"`
	Circuit string       `json:"circuit"`
	Off     benchMeasure `json:"off"`
	On      benchMeasure `json:"on"`
	Journal benchMeasure `json:"journal"`
	Trace   benchMeasure `json:"trace"`
	// OnOverhead / JournalOverhead / TraceOverhead are the headline
	// ratios vs the off tier (1.02 = 2% slower); the off tier is the one
	// under the <2% contract, the enabled tiers quantify what
	// instrumentation costs (trace adds span assembly + OTLP export on
	// top of the journal).
	OnOverhead      float64 `json:"on_overhead"`
	JournalOverhead float64 `json:"journal_overhead"`
	TraceOverhead   float64 `json:"trace_overhead"`
}

func (o *obsTiers) ratios() {
	if o.Off.NsPerOp > 0 {
		o.OnOverhead = float64(o.On.NsPerOp) / float64(o.Off.NsPerOp)
		o.JournalOverhead = float64(o.Journal.NsPerOp) / float64(o.Off.NsPerOp)
		o.TraceOverhead = float64(o.Trace.NsPerOp) / float64(o.Off.NsPerOp)
	}
}

type obsBench struct {
	Note       string     `json:"note"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Scale      float64    `json:"scale"`
	Engines    []obsTiers `json:"engines"`
}

func TestEmitObsBench(t *testing.T) {
	if os.Getenv("FSCT_EMIT_BENCH") == "" {
		t.Skip("set FSCT_EMIT_BENCH=1 to measure and write BENCH_obs.json")
	}
	out := obsBench{
		Note: "Observability overhead tiers at the bench scale, serial width. " +
			"The off tier (nil collector) is the <2% contract; on/journal " +
			"quantify enabled instrumentation and are allowed to be slower.",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      benchScale,
	}

	// Screening, mirroring BenchmarkObsOverheadScreen.
	d := mustBenchDesign(t, "s38584")
	faults := CollapsedFaults(d.C)
	screen := obsTiers{Name: "screen", Circuit: "s38584"}
	screen.Off = measure(func() {
		ScreenFaultsOpt(d, faults, ScreenOptions{Workers: 1})
	})
	screen.On = measure(func() {
		ScreenFaultsOpt(d, faults, ScreenOptions{Workers: 1, Obs: NewCollector()})
	})
	screen.Journal = measure(func() {
		ScreenFaultsOpt(d, faults, ScreenOptions{Workers: 1, Obs: journalCollector()})
	})
	screen.Trace = measure(func() {
		traceTier(func(col *Collector) {
			ScreenFaultsOpt(d, faults, ScreenOptions{Workers: 1, Obs: col})
		})
	})
	screen.ratios()
	out.Engines = append(out.Engines, screen)

	// Sequential fault simulation, mirroring BenchmarkObsOverheadFaultSim.
	cf := fault.Collapsed(d.C)
	seq := faultsim.Sequence(d.AlternatingSequence(8))
	sim := obsTiers{Name: "faultsim", Circuit: "s38584"}
	sim.Off = measure(func() {
		faultsim.Run(d.C, seq, cf, faultsim.Options{Workers: 1})
	})
	sim.On = measure(func() {
		faultsim.Run(d.C, seq, cf, faultsim.Options{Workers: 1, Obs: NewCollector()})
	})
	sim.Journal = measure(func() {
		faultsim.Run(d.C, seq, cf, faultsim.Options{Workers: 1, Obs: journalCollector()})
	})
	sim.Trace = measure(func() {
		traceTier(func(col *Collector) {
			faultsim.Run(d.C, seq, cf, faultsim.Options{Workers: 1, Obs: col})
		})
	})
	sim.ratios()
	out.Engines = append(out.Engines, sim)

	// The whole three-step flow, mirroring BenchmarkObsOverheadFlow.
	fd := mustBenchDesign(t, "s9234")
	flow := obsTiers{Name: "flow", Circuit: "s9234"}
	flow.Off = measure(func() {
		if _, err := RunFlow(fd, FlowParams{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	flow.On = measure(func() {
		if _, err := RunFlow(fd, FlowParams{Workers: 1, Obs: NewCollector()}); err != nil {
			t.Fatal(err)
		}
	})
	flow.Journal = measure(func() {
		if _, err := RunFlow(fd, FlowParams{Workers: 1, Obs: journalCollector()}); err != nil {
			t.Fatal(err)
		}
	})
	flow.Trace = measure(func() {
		traceTier(func(col *Collector) {
			if _, err := RunFlow(fd, FlowParams{Workers: 1, Obs: col}); err != nil {
				t.Fatal(err)
			}
		})
	})
	flow.ratios()
	out.Engines = append(out.Engines, flow)

	f, err := os.Create("BENCH_obs.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		t.Fatal(err)
	}
	for _, e := range out.Engines {
		t.Logf("%s (%s): on %.3fx, journal %.3fx, trace %.3fx vs off", e.Name, e.Circuit, e.OnOverhead, e.JournalOverhead, e.TraceOverhead)
	}
}
