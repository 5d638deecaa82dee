package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/obs"
)

// TestConfirmMatchesSingleFaultRun is the lane-pair property: for every
// trial, Confirm's verdict equals a one-fault RunCtx of the trial's own
// sequence. Sequences have unequal lengths (some empty) and X inputs;
// trial counts straddle the 32-pair word; worker counts 1-4; initial
// state both power-on X and a fixed load.
func TestConfirmMatchesSingleFaultRun(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	detections := 0
	for circ := 0; circ < 3; circ++ {
		c := gen.Generate(gen.Profile{
			Name: "confirm", PIs: 4 + r.Intn(6), POs: 3 + r.Intn(4),
			FFs: 4 + r.Intn(12), Gates: 60 + r.Intn(200),
		}, int64(90+circ))
		faults := fault.Collapsed(c)
		for _, n := range []int{1, 31, 32, 33, 100} {
			trials := make([]Trial, n)
			for i := range trials {
				cycles := r.Intn(40)
				if i%5 == 0 {
					cycles = 0
				}
				trials[i] = Trial{Seq: randSeq(r, len(c.Inputs), cycles, true), Fault: faults[r.Intn(len(faults))]}
			}
			for _, init := range [][]logic.V{nil, randState(r, len(c.FFs))} {
				want := make([]int, n)
				for i, tr := range trials {
					res, err := RunCtx(nil, c, tr.Seq, []fault.Fault{tr.Fault}, Options{Workers: 1, InitState: init})
					if err != nil {
						t.Fatal(err)
					}
					want[i] = res.DetectedAt[0]
					if want[i] >= 0 {
						detections++
					}
				}
				for workers := 1; workers <= 4; workers++ {
					got, err := Confirm(nil, c, trials, Options{Workers: workers, InitState: init, Obs: obs.New()})
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("circuit %d, %d trials, init=%v, workers=%d: trial %d (%s, %d cycles) confirmed at %d, one-fault run at %d",
								circ, n, init != nil, workers, i, trials[i].Fault.Describe(c), len(trials[i].Seq), got[i], want[i])
						}
					}
				}
			}
		}
	}
	if detections == 0 {
		t.Fatal("no trial detects its fault: the comparison is vacuous")
	}
	t.Logf("%d detecting trials", detections)
}

// TestConfirmEmpty covers the degenerate calls: no trials, and trials
// whose sequences are empty.
func TestConfirmEmpty(t *testing.T) {
	c := gen.Generate(gen.Profile{Name: "confirm", PIs: 4, POs: 3, FFs: 4, Gates: 40}, 1)
	got, err := Confirm(nil, c, nil, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("Confirm(nil trials) = %v, %v", got, err)
	}
	f := fault.Collapsed(c)[0]
	got, err = Confirm(nil, c, []Trial{{Fault: f}, {Seq: Sequence{}, Fault: f}}, Options{})
	if err != nil || got[0] != -1 || got[1] != -1 {
		t.Fatalf("Confirm(empty sequences) = %v, %v; want [-1 -1]", got, err)
	}
}
