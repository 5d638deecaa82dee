package engine_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/atpg"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/sim"
)

// randWord fills all 64 lanes with values drawn from {0,1,X}; lane 0
// stays binary (the fault-free reference convention) and X shows up
// rarely so the three-valued corners get exercised without washing the
// whole trace out.
func randWord(rng *rand.Rand) logic.Word {
	w := logic.WordAll(logic.V(rng.Intn(2)))
	for lane := uint(1); lane < 64; lane++ {
		v := logic.V(rng.Intn(2))
		if rng.Intn(16) == 0 {
			v = logic.X
		}
		w = w.Set(lane, v)
	}
	return w
}

func laneInjections(faults []fault.Fault, n int) []sim.LaneInject {
	injs := make([]sim.LaneInject, 0, n)
	for k := 0; k < n && k < len(faults); k++ {
		injs = append(injs, sim.LaneInject{Inject: faults[k].Inject(), Lane: uint(k + 1)})
	}
	return injs
}

// TestSeqBackendEquivalence checks both sequential backends against the
// references. The compiled machine drawn from the cache's shared program
// must match the map-based sim.PackedSeq bit for bit under injections,
// X-resets, packed state presets and divergent per-lane inputs; and
// fault simulation under Auto, Compiled and Hybrid (with a threshold low
// enough to demote faults to the sweep) must report exactly the
// detection cycles of the scalar faultsim.RunSerial.
func TestSeqBackendEquivalence(t *testing.T) {
	c := gen.Generate(gen.Profile{Name: "eqs", PIs: 5, POs: 4, FFs: 12, Gates: 150}, 7)
	arts := engine.New().For(c)
	faults := arts.CollapsedFaults()

	comp := sim.NewCompiledSeqFrom(arts.Program(nil))
	ref := sim.NewPackedSeq(c)
	rng := rand.New(rand.NewSource(11))
	pi := make([]logic.Word, len(c.Inputs))
	var got, want []logic.Word
	for round := 0; round < 3; round++ {
		injs := laneInjections(faults[round*20:], 15)
		comp.SetInjections(injs)
		ref.SetInjections(injs)
		comp.ResetX()
		ref.ResetX()
		for ff := 0; ff < len(c.FFs) && ff < 4; ff++ {
			w := randWord(rng)
			comp.SetStateWord(ff, w)
			ref.SetStateWord(ff, w)
		}
		for cyc := 0; cyc < 24; cyc++ {
			for i := range pi {
				pi[i] = randWord(rng)
			}
			got, want = comp.Cycle(pi, got), ref.Cycle(pi, want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d cycle %d: compiled outputs %v, packed reference %v", round, cyc, got, want)
			}
		}
	}

	seq := make(faultsim.Sequence, 40)
	for cyc := range seq {
		seq[cyc] = make([]logic.V, len(c.Inputs))
		for i := range seq[cyc] {
			seq[cyc][i] = logic.V(rng.Intn(2))
		}
	}
	init := make([]logic.V, len(c.FFs))
	for i := range init {
		init[i] = logic.V(rng.Intn(2))
	}
	for _, st := range [][]logic.V{nil, init} {
		serial := faultsim.RunSerial(c, seq, faults, faultsim.Options{InitState: st})
		for _, b := range []engine.Backend{engine.Auto, engine.Compiled, engine.Hybrid} {
			res := faultsim.Run(c, seq, faults, faultsim.Options{Eval: b, ConeThreshold: 4, InitState: st})
			if !reflect.DeepEqual(res.DetectedAt, serial.DetectedAt) {
				t.Errorf("backend %v (init state %v): detections differ from RunSerial", b, st != nil)
			}
		}
	}
}

// TestCombBackendEquivalence checks the compiled combinational machine
// drawn from the cache against the map-based sim.PackedComb and the
// scalar sim.Comb, lane by lane, over the scan circuit's comb model.
func TestCombBackendEquivalence(t *testing.T) {
	c := gen.Generate(gen.Profile{Name: "eqc", PIs: 5, POs: 4, FFs: 10, Gates: 120}, 9)
	cm, err := atpg.BuildCombModel(c)
	if err != nil {
		t.Fatal(err)
	}
	comp := sim.NewCompiledCombFrom(engine.New().For(cm.C).Program(nil))
	ref := sim.NewPackedComb(cm.C)
	scalar := sim.NewComb(cm.C)
	faults := fault.Collapsed(cm.C)

	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 3; round++ {
		injs := laneInjections(faults[round*10:], 20)
		comp.SetInjections(injs)
		ref.SetInjections(injs)
		comp.ClearX()
		ref.ClearX()
		for _, in := range cm.C.Inputs {
			w := randWord(rng)
			comp.Words()[in] = w
			ref.Words()[in] = w
		}
		comp.Eval()
		ref.Eval()
		for lane := uint(0); lane < 64; lane++ {
			for _, in := range cm.C.Inputs {
				scalar.Vals[in] = comp.Words()[in].Get(lane)
			}
			var inj *sim.Inject
			if lane >= 1 && int(lane) <= len(injs) {
				inj = &injs[lane-1].Inject
			}
			scalar.Eval(inj)
			for _, out := range cm.C.Outputs {
				got := comp.Words()[out].Get(lane)
				if want := ref.Words()[out].Get(lane); got != want {
					t.Fatalf("round %d: output %s lane %d: compiled %v, packed reference %v",
						round, cm.C.NameOf(out), lane, got, want)
				}
				if want := scalar.Vals[out]; got != want {
					t.Fatalf("round %d: output %s lane %d: compiled %v, scalar reference %v",
						round, cm.C.NameOf(out), lane, got, want)
				}
			}
		}
	}
}
