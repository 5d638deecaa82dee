package core

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
)

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults(400)
	if p.LargeDist != 240 || p.MedDist != 100 || p.Dist != 60 {
		t.Errorf("distance defaults for maxchain=400: %d/%d/%d", p.LargeDist, p.MedDist, p.Dist)
	}
	p = Params{}.withDefaults(10)
	if p.LargeDist != 50 || p.MedDist != 25 || p.Dist != 20 {
		t.Errorf("distance floors: %d/%d/%d", p.LargeDist, p.MedDist, p.Dist)
	}
	if p.CombBacktracks == 0 || p.SeqBacktracks == 0 || p.FinalBacktracks == 0 || p.MaxFrames == 0 {
		t.Error("effort defaults missing")
	}
	// Explicit values are preserved.
	q := Params{LargeDist: 7, Dist: 3}.withDefaults(400)
	if q.LargeDist != 7 || q.Dist != 3 {
		t.Error("explicit distances overridden")
	}
}

func TestSkipStep2RoutesEverythingToStep3(t *testing.T) {
	d := s27Design(t, 1)
	rep, err := Run(d, Params{SkipStep2: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Step2.Detected != 0 || rep.Step2Vectors != 0 {
		t.Errorf("step 2 ran despite SkipStep2: %+v", rep.Step2)
	}
	s3 := rep.Step3.Detected + rep.Step3.Undetectable + rep.Step3.Undetected
	if s3 != rep.Hard+rep.EasyEscapes {
		t.Errorf("step 3 accounted %d, want %d", s3, rep.Hard+rep.EasyEscapes)
	}
}

func TestSimulateAlternatingOnHard(t *testing.T) {
	d := s27Design(t, 1)
	base, err := Run(d, Params{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(d, Params{SimulateAlternatingOnHard: true})
	if err != nil {
		t.Fatal(err)
	}
	// Total coverage must not drop; the alternating-dropped faults are
	// credited to step 2.
	baseDet := base.Step2.Detected + base.Step3.Detected
	optDet := opt.Step2.Detected + opt.Step3.Detected
	if optDet < baseDet {
		t.Errorf("alternating-on-hard lowered detections: %d < %d", optDet, baseDet)
	}
	if opt.Undetected() > base.Undetected() {
		t.Errorf("alternating-on-hard raised undetected: %d > %d", opt.Undetected(), base.Undetected())
	}
}

func TestSpanHelpers(t *testing.T) {
	s := Screened{Locs: []Location{{0, 3}, {0, 9}, {1, 2}}}
	first, last, multi := s.Span()
	if first != (Location{0, 3}) || last != (Location{1, 2}) || !multi {
		t.Errorf("Span = %v %v %v", first, last, multi)
	}
	empty := Screened{}
	if _, _, m := empty.Span(); m {
		t.Error("empty Span claims multi-chain")
	}
}

// TestFillHitsMatchSingleFaultRuns pins the final pass's fill
// semantics: a fault's vector hits if and only if its zero fill or one
// of its eight pseudo-random fills detects it in a one-fault RunCtx.
// The reference is the one-at-a-time loop the lane-paired Confirm call
// replaced, kept here verbatim.
func TestFillHitsMatchSingleFaultRuns(t *testing.T) {
	d := genDesign(t, 300, 24, 2, 8)
	arts := engine.Default().For(d.C)
	cm, err := arts.CombModel()
	if err != nil {
		t.Fatal(err)
	}
	fixed := make(map[netlist.SignalID]logic.V, len(d.Assignments))
	for k, v := range d.Assignments {
		fixed[k] = v
	}
	model, tables, err := arts.CombSearch(fixed)
	if err != nil {
		t.Fatal(err)
	}
	eng := atpg.NewEngineTables(model, tables)

	// Every third fault, with its PODEM vector when one exists and an
	// empty vector (all don't-cares) otherwise or on alternate picks.
	var faults []fault.Fault
	var vectors []scan.Vector
	for i, f := range fault.Collapsed(d.C) {
		if i%3 != 0 {
			continue
		}
		v := scanVector()
		if r := eng.Generate(cm.MapFault(f), 250); r.Status == atpg.Found && i%2 == 0 {
			for in, val := range r.Assignment {
				if d.C.IsFF(in) {
					v.FFs[in] = val
				} else {
					v.PIs[in] = val
				}
			}
		}
		faults = append(faults, f)
		vectors = append(vectors, v)
	}

	reference := func(f fault.Fault, v scan.Vector) bool {
		rng := uint64(f.Signal)<<40 ^ uint64(f.Gate)<<16 ^ uint64(f.Pin)<<8 ^ uint64(f.Stuck) ^ 0x9e3779b97f4a7c15
		next := func() logic.V {
			rng = rng*6364136223846793005 + 1442695040888963407
			return logic.V((rng >> 33) & 1)
		}
		for try := 0; try < 9; try++ {
			vv := scan.Vector{FFs: make(map[netlist.SignalID]logic.V, len(d.C.FFs)), PIs: v.PIs}
			for k, val := range v.FFs {
				vv.FFs[k] = val
			}
			if try > 0 {
				for _, ff := range d.C.FFs {
					if _, ok := vv.FFs[ff]; !ok {
						vv.FFs[ff] = next()
					}
				}
			}
			seq := faultsim.Sequence(d.ConvertVectors([]scan.Vector{vv}))
			fr, err := faultsim.RunCtx(nil, d.C, seq, []fault.Fault{f}, faultsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if fr.DetectedAt[0] >= 0 {
				return true
			}
		}
		return false
	}

	hits := 0
	for _, workers := range []int{1, 3} {
		got, err := fillHits(nil, d, faults, vectors, Params{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		hits = 0
		for i, f := range faults {
			want := reference(f, vectors[i])
			if got[i] != want {
				t.Errorf("workers=%d: fault %s: fillHits %v, one-at-a-time fills %v", workers, f.Describe(d.C), got[i], want)
			}
			if want {
				hits++
			}
		}
	}
	if hits == 0 || hits == len(faults) {
		t.Fatalf("%d of %d faults hit: the comparison needs both outcomes", hits, len(faults))
	}
	t.Logf("%d of %d faults hit", hits, len(faults))
}

func scanVector() (v scan.Vector) {
	v.FFs = map[netlist.SignalID]logic.V{}
	v.PIs = map[netlist.SignalID]logic.V{}
	return v
}

func TestReportAccessors(t *testing.T) {
	r := &Report{Easy: 3, Hard: 2, UndetectedFaults: make([]fault.Fault, 1)}
	if r.Affecting() != 5 || r.Undetected() != 1 {
		t.Error("report accessors wrong")
	}
}

func TestCategoryString(t *testing.T) {
	if Cat1.String() != "easy" || Cat2.String() != "hard" || Cat3.String() != "unaffecting" {
		t.Error("category strings wrong")
	}
}
