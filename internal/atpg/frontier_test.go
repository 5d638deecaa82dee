package atpg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/tpi"
)

// coneScanFrontier is the D-frontier computed the way PODEM did before
// drain maintained it: a rescan of every fault-cone gate in topological
// order, keeping gates with an undetermined output and a fault effect on
// some input (a branch injection overriding the faulty pin value).
func coneScanFrontier(e *Engine) []netlist.SignalID {
	var out []netlist.SignalID
	for _, g := range e.c.Order {
		if e.flags[g]&fCone == 0 || (e.good[g].Known() && e.flty[g].Known()) {
			continue
		}
		for pin, f := range e.c.Signals[g].Fanin {
			gv, fv := e.good[f], e.flty[f]
			for _, br := range e.brInj[g] {
				if br.Pin == pin {
					fv = br.Value
				}
			}
			if gv.Known() && fv.Known() && gv != fv {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// checkFrontier compares the maintained frontier with the cone scan as
// sets, checks the position index, checks that the objective's best gate
// is the one the old first-minimum scan in topological order picked, and
// checks that outside the cone the faulty machine equals the good one.
func checkFrontier(e *Engine) error {
	want := coneScanFrontier(e)
	if len(want) != len(e.frontier) {
		return fmt.Errorf("frontier has %d gates, cone scan %d", len(e.frontier), len(want))
	}
	for i, g := range e.frontier {
		if e.fpos[g] != int32(i) {
			return fmt.Errorf("fpos[%d] = %d, want %d", g, e.fpos[g], i)
		}
	}
	for _, g := range want {
		if e.fpos[g] < 0 {
			return fmt.Errorf("gate %s missing from the frontier", e.c.NameOf(g))
		}
	}
	members := 0
	for s := range e.fpos {
		if e.fpos[s] >= 0 {
			members++
		}
		if e.flags[s]&fCone == 0 && e.flty[s] != e.good[s] {
			return fmt.Errorf("%s outside the cone has good %v, faulty %v",
				e.c.NameOf(netlist.SignalID(s)), e.good[s], e.flty[s])
		}
	}
	if members != len(want) {
		return fmt.Errorf("%d signals have a frontier position, want %d", members, len(want))
	}
	if len(want) > 0 {
		old := want[0]
		for _, g := range want[1:] {
			if e.obsDist[g] < e.obsDist[old] {
				old = g
			}
		}
		best := e.frontier[0]
		for _, g := range e.frontier[1:] {
			if e.before(g, best) {
				best = g
			}
		}
		if best != old {
			return fmt.Errorf("best frontier gate %s, cone scan picks %s", e.c.NameOf(best), e.c.NameOf(old))
		}
	}
	return nil
}

// checkFrontierWalk loads each fault in turn and drives the engine
// through a seeded random walk of assignments, flips and unassignments
// (PODEM's decisions and backtracks), checking the frontier after reset
// and after every drain. One engine serves every fault, so state left by
// one fault must not leak into the next.
func checkFrontierWalk(t testing.TB, m *Model, faults [][]sim.Inject, seed int64, steps int) {
	t.Helper()
	e := NewEngine(m)
	free := m.FreeInputs()
	r := rand.New(rand.NewSource(seed))
	var stack []netlist.SignalID
	for fi, injs := range faults {
		e.loadFault(injs)
		e.reset()
		if err := checkFrontier(e); err != nil {
			t.Fatalf("seed %d fault %d after reset: %v", seed, fi, err)
		}
		stack = stack[:0]
		for step := 0; step < steps; step++ {
			var open []netlist.SignalID
			for _, in := range free {
				if e.good[in] == logic.X {
					open = append(open, in)
				}
			}
			switch {
			case len(stack) > 0 && (len(open) == 0 || r.Intn(3) == 0):
				top := stack[len(stack)-1]
				if r.Intn(2) == 0 {
					e.assign(top, e.good[top].Not())
				} else {
					e.assign(top, logic.X)
					stack = stack[:len(stack)-1]
				}
			case len(open) > 0:
				in := open[r.Intn(len(open))]
				e.assign(in, logic.FromBool(r.Intn(2) == 1))
				stack = append(stack, in)
			}
			e.drain()
			if err := checkFrontier(e); err != nil {
				t.Fatalf("seed %d fault %d step %d: %v", seed, fi, step, err)
			}
		}
	}
}

// combFaults maps every collapsed fault of orig into cm, one injection
// each, and checks that both stem and branch faults are present.
func combFaults(t testing.TB, orig *netlist.Circuit, cm *CombModel) [][]sim.Inject {
	t.Helper()
	var out [][]sim.Inject
	stems, branches := 0, 0
	for _, f := range fault.Collapsed(orig) {
		f = cm.MapFault(f)
		if f.IsStem() {
			stems++
		} else {
			branches++
		}
		out = append(out, []sim.Inject{f.Inject()})
	}
	if stems == 0 || branches == 0 {
		t.Fatalf("fault list has %d stem and %d branch faults, want both", stems, branches)
	}
	return out
}

func TestFrontierOracleS27(t *testing.T) {
	orig := bench.MustS27()
	cm, err := BuildCombModel(orig)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(cm.C, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFrontierWalk(t, m, combFaults(t, orig, cm), 1, 40)
}

func TestFrontierOracleS1423ScanMode(t *testing.T) {
	p, err := gen.ProfileByName("s1423")
	if err != nil {
		t.Fatal(err)
	}
	d, err := tpi.Insert(gen.Generate(p.Scale(0.05), 1), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := BuildCombModel(d.C)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(cm.C, d.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.FreeInputs()) == len(cm.C.Inputs) {
		t.Fatal("scan-mode model has no TPI-fixed inputs")
	}
	for seed := int64(1); seed <= 3; seed++ {
		checkFrontierWalk(t, m, combFaults(t, d.C, cm), seed, 60)
	}
}
