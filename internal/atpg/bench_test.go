package atpg_test

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/tpi"
)

// finalTarget is a final-pass-style PODEM target: the scan-mode
// combinational model of s9234@0.25 (two chains, TPI-fixed inputs) and
// the stem fault g4 s-a-0, which exhausts the final pass's 25,000
// backtracks without a verdict.
func finalTarget(tb testing.TB) (*atpg.Engine, []sim.Inject) {
	tb.Helper()
	p, err := gen.ProfileByName("s9234")
	if err != nil {
		tb.Fatal(err)
	}
	d, err := tpi.Insert(gen.Generate(p.Scale(0.25), 1), tpi.Options{NumChains: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cm, err := atpg.BuildCombModel(d.C)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := atpg.NewModel(cm.C, d.Assignments)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range fault.Collapsed(d.C) {
		if f.Describe(d.C) == "g4 s-a-0" {
			return atpg.NewEngine(m), []sim.Inject{cm.MapFault(f).Inject()}
		}
	}
	tb.Fatal("target fault g4 s-a-0 not in the collapsed list")
	return nil, nil
}

// finalBacktracks is the final pass's PODEM budget.
const finalBacktracks = 25000

// BenchmarkPodemFinal times one final-pass PODEM call that runs to the
// backtrack limit: the per-call cost of the search kernel when no
// verdict comes early.
//
//	go test ./internal/atpg -run '^$' -bench PodemFinal -benchtime 5x
func BenchmarkPodemFinal(b *testing.B) {
	e, injs := finalTarget(b)
	if res := e.GenerateMulti(injs, finalBacktracks); res.Status != atpg.Aborted || res.Backtracks != finalBacktracks+1 {
		b.Fatalf("target: %v after %d backtracks, want an abort at the limit", res.Status, res.Backtracks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.GenerateMulti(injs, finalBacktracks)
	}
}

// TestSearchLoopAllocFree checks that PODEM's search loop does not
// allocate: a call allocates no more at a large backtrack limit than at
// a small one.
func TestSearchLoopAllocFree(t *testing.T) {
	e, injs := finalTarget(t)
	allocs := func(limit int) float64 {
		return testing.AllocsPerRun(3, func() { e.GenerateMulti(injs, limit) })
	}
	if short, long := allocs(10), allocs(1000); long > short {
		t.Errorf("allocations per call: %v at 1000 backtracks, %v at 10", long, short)
	}
}
