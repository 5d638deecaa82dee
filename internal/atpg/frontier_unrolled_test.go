package atpg_test

import (
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/seqatpg"
	"repro/internal/sim"
)

// TestFrontierOracleUnrolled runs the frontier oracle walk on a 3-frame
// seqatpg model of s1423@0.05, where every fault is injected once per
// frame. The unrolled circuit names each copy "<signal>@<frame>"; the
// test rebuilds the fixed inputs and per-frame injection sites from
// those names.
func TestFrontierOracleUnrolled(t *testing.T) {
	const frames = 3
	d := s1423Design(t)
	ffs := d.Chains[0].FFs
	ctrl := map[netlist.SignalID]bool{ffs[0]: true}
	obs := map[netlist.SignalID]bool{ffs[len(ffs)-1]: true}
	sm, err := seqatpg.Build(d, ctrl, obs, frames)
	if err != nil {
		t.Fatal(err)
	}
	uc := sm.Circuit()
	at := func(s netlist.SignalID, frame int) (netlist.SignalID, bool) {
		return uc.Lookup(fmt.Sprintf("%s@%d", d.C.NameOf(s), frame))
	}
	fixed := map[netlist.SignalID]logic.V{}
	for fr := 0; fr < frames; fr++ {
		for in, v := range d.Assignments {
			id, _ := at(in, fr)
			fixed[id] = v
		}
	}
	for _, ff := range d.C.FFs {
		if !ctrl[ff] {
			id, _ := at(ff, 0)
			fixed[id] = logic.X // uncontrolled initial state
		}
	}
	m, err := atpg.NewModel(uc, fixed)
	if err != nil {
		t.Fatal(err)
	}

	var faults [][]sim.Inject
	stems, branches := 0, 0
	for _, f := range fault.Collapsed(d.C) {
		var injs []sim.Inject
		for fr := 0; fr < frames; fr++ {
			sig, _ := at(f.Signal, fr)
			switch {
			case f.IsStem():
				injs = append(injs, sim.Inject{Signal: sig, Gate: netlist.None, Pin: -1, Value: f.Stuck})
			case d.C.IsFF(f.Gate):
				// A D-pin branch feeds the next frame's state buffer.
				if g, ok := at(f.Gate, fr+1); ok && !ctrl[f.Gate] {
					injs = append(injs, sim.Inject{Signal: sig, Gate: g, Pin: 0, Value: f.Stuck})
				}
			default:
				g, _ := at(f.Gate, fr)
				injs = append(injs, sim.Inject{Signal: sig, Gate: g, Pin: f.Pin, Value: f.Stuck})
			}
		}
		if len(injs) < 2 {
			continue
		}
		if f.IsStem() {
			stems++
		} else {
			branches++
		}
		faults = append(faults, injs)
	}
	if stems == 0 || branches == 0 {
		t.Fatalf("%d stem and %d branch faults, want both", stems, branches)
	}
	for seed := int64(1); seed <= 2; seed++ {
		atpg.CheckFrontierWalk(t, m, faults, seed, 60)
	}
}
