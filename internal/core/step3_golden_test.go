package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/tpi"
)

// TestStep3GoldenDeterministic pins step 3's verdicts byte for byte.
// The hashes are of canonicalReport as computed before the final pass
// was staged and confirmations moved onto lane pairs; the runs cover
// every worker count and both sequential backends. The first circuit
// exercises each step-3 path: a fill hit, final-pass PODEM aborts,
// final sequential attempts and a random rescue that finds nothing; the
// second one a rescue that detects.
func TestStep3GoldenDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scale  float64
		seed   int64
		sha256 string
		// counters that must be positive on this circuit
		positive []string
	}{
		{"s9234", 0.2, 4, "01cac083c8357d7e10ba2a4fd6219f4d5c887ddd19d917de21e69dde5755c18c",
			[]string{"step3.fill_hits", "atpg.final.aborted", "step3.final_models"}},
		{"s1423", 0.2, 1, "ecde2fb29d97e55b92ea5dabef101c560bfde7c4e7610d5d755a61cfac87f9f2",
			[]string{"step3.random_rescued"}},
	} {
		p, err := gen.ProfileByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := tpi.Insert(gen.Generate(p.Scale(tc.scale), tc.seed), tpi.Options{NumChains: 1, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, eval := range []engine.Backend{engine.Compiled, engine.Hybrid} {
			for _, workers := range []int{1, 2, 4} {
				col := obs.New()
				rep, err := Run(d, Params{Workers: workers, Eval: eval, FinalBacktracks: 400, Engine: engine.New(), Obs: col})
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(canonicalReport(t, rep))
				if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
					t.Errorf("%s eval=%v workers=%d: report sha256 %s, want %s", tc.name, eval, workers, got, tc.sha256)
				}
				m := col.Snapshot()
				for _, name := range tc.positive {
					if m.Counters[name] <= 0 {
						t.Errorf("%s eval=%v workers=%d: counter %s = %d, want > 0", tc.name, eval, workers, name, m.Counters[name])
					}
				}
				if _, ok := m.Counters["step3.random_rescued"]; !ok {
					t.Errorf("%s eval=%v workers=%d: the random rescue did not run", tc.name, eval, workers)
				}
			}
		}
	}
}
