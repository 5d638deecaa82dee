package atpg

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func TestControllabilityBasics(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n = NOT(a)
g = AND(a, b)
y = OR(g, c)
`
	cc, err := bench.ParseString(src, "scoap")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(cc, nil)
	cc0, cc1 := controllability(m)
	a, _ := cc.Lookup("a")
	n, _ := cc.Lookup("n")
	g, _ := cc.Lookup("g")
	y, _ := cc.Lookup("y")
	if cc0[a] != 1 || cc1[a] != 1 {
		t.Errorf("input controllability %d/%d", cc0[a], cc1[a])
	}
	if cc0[n] != 2 || cc1[n] != 2 {
		t.Errorf("NOT controllability %d/%d", cc0[n], cc1[n])
	}
	// AND: 0 needs one controlling input (1+1=2), 1 needs both (1+1+1=3).
	if cc0[g] != 2 || cc1[g] != 3 {
		t.Errorf("AND controllability %d/%d", cc0[g], cc1[g])
	}
	// OR(g, c): 1 via c (1+1=2); 0 needs g=0 and c=0 (2+1+1=4).
	if cc1[y] != 2 || cc0[y] != 4 {
		t.Errorf("OR controllability %d/%d", cc0[y], cc1[y])
	}
}

func TestControllabilityFixedInputs(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
`
	cc, err := bench.ParseString(src, "fix")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := cc.Lookup("b")
	y, _ := cc.Lookup("y")
	m, _ := NewModel(cc, map[netlist.SignalID]logic.V{b: logic.Zero})
	cc0, cc1 := controllability(m)
	if cc0[b] != 0 || cc1[b] != ccInf {
		t.Errorf("pinned-0 input controllability %d/%d", cc0[b], cc1[b])
	}
	// y can never be 1 with b pinned 0.
	if cc1[y] < ccInf {
		t.Errorf("AND with pinned-0 side should be 1-uncontrollable, got %d", cc1[y])
	}
	if cc0[y] != 1 {
		t.Errorf("AND 0-controllability with pinned-0 side = %d, want 1", cc0[y])
	}
	// An input pinned to X is uncontrollable both ways.
	m2, _ := NewModel(cc, map[netlist.SignalID]logic.V{b: logic.X})
	c0, c1 := controllability(m2)
	if c0[b] != ccInf || c1[b] != ccInf {
		t.Errorf("pinned-X input controllability %d/%d", c0[b], c1[b])
	}
}

func TestControllabilityXor(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(a, b)
`
	cc, err := bench.ParseString(src, "xor")
	if err != nil {
		t.Fatal(err)
	}
	y, _ := cc.Lookup("y")
	m, _ := NewModel(cc, nil)
	cc0, cc1 := controllability(m)
	// 0: equal inputs (1+1)+1 = 3; 1: differing inputs, same cost.
	if cc0[y] != 3 || cc1[y] != 3 {
		t.Errorf("XOR controllability %d/%d", cc0[y], cc1[y])
	}
}

// TestConeRestriction: the engine's cone must include exactly the
// signals a fault can influence.
func TestConeRestriction(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
y = AND(a, b)
z = NOT(b)
`
	cc, err := bench.ParseString(src, "cone")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(cc, nil)
	e := NewEngine(m)
	a, _ := cc.Lookup("a")
	y, _ := cc.Lookup("y")
	z, _ := cc.Lookup("z")
	f := fault.Fault{Signal: a, Gate: netlist.None, Pin: -1, Stuck: logic.Zero}
	e.loadFault([]sim.Inject{f.Inject()})
	if e.flags[a]&fCone == 0 || e.flags[y]&fCone == 0 {
		t.Error("cone misses fault site or downstream gate")
	}
	if e.flags[z]&fCone != 0 {
		t.Error("cone includes unrelated gate z")
	}
	if !e.isOutput(y) || e.isOutput(z) {
		t.Error("cone outputs wrong")
	}
}
