package atpg_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/tpi"
)

var update = flag.Bool("update", false, "rewrite the search-decision golden files")

// decisionLine renders one PODEM outcome: the fault, its status, the
// backtrack count and the assignment sorted by signal ID. Any change to
// a search decision (objective tie-break, implication, frontier) shows
// up here even when the flow's final counts do not move.
func decisionLine(c *netlist.Circuit, f fault.Fault, res atpg.Result) string {
	ids := make([]netlist.SignalID, 0, len(res.Assignment))
	for s := range res.Assignment {
		ids = append(ids, s)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v bt=%d", f.Describe(c), res.Status, res.Backtracks)
	for _, s := range ids {
		fmt.Fprintf(&b, " %s=%v", c.NameOf(s), res.Assignment[s])
	}
	return b.String()
}

// checkGolden compares got with testdata/name, or rewrites it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: first difference at line %d:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", name, len(gl), len(wl))
}

// s1423Design is the s1423 profile at scale 0.05 with one scan chain:
// the scan-mode model step 2 and the final pass search.
func s1423Design(t testing.TB) *scan.Design {
	t.Helper()
	p, err := gen.ProfileByName("s1423")
	if err != nil {
		t.Fatal(err)
	}
	d, err := tpi.Insert(gen.Generate(p.Scale(0.05), 1), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// combDecisions runs PODEM on every collapsed fault of orig, mapped into
// its combinational model with the given fixed inputs.
func combDecisions(t *testing.T, orig *netlist.Circuit, fixed map[netlist.SignalID]logic.V, limit int) string {
	t.Helper()
	cm, err := atpg.BuildCombModel(orig)
	if err != nil {
		t.Fatal(err)
	}
	m, err := atpg.NewModel(cm.C, fixed)
	if err != nil {
		t.Fatal(err)
	}
	e := atpg.NewEngine(m)
	var b strings.Builder
	for _, f0 := range fault.Collapsed(orig) {
		f := cm.MapFault(f0)
		b.WriteString(decisionLine(cm.C, f, e.Generate(f, limit)))
		b.WriteByte('\n')
	}
	return b.String()
}

func TestDecisionGoldenS27Comb(t *testing.T) {
	checkGolden(t, "decisions_s27_comb.txt", combDecisions(t, bench.MustS27(), nil, 250))
}

func TestDecisionGoldenS1423Comb(t *testing.T) {
	d := s1423Design(t)
	checkGolden(t, "decisions_s1423_comb.txt", combDecisions(t, d.C, d.Assignments, 250))
}

// TestDecisionGoldenS9234Comb covers a larger search with aborts at
// the step-2 budget. Its full listing is big, so only its SHA-256 is
// kept; the s27 and s1423 listings show the line that moved.
func TestDecisionGoldenS9234Comb(t *testing.T) {
	p, err := gen.ProfileByName("s9234")
	if err != nil {
		t.Fatal(err)
	}
	d, err := tpi.Insert(gen.Generate(p.Scale(0.1), 1), tpi.Options{NumChains: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := combDecisions(t, d.C, d.Assignments, 250)
	sum := sha256.Sum256([]byte(s))
	checkGolden(t, "decisions_s9234_comb.sha256", fmt.Sprintf("%x faults=%d aborted=%d\n",
		sum, strings.Count(s, "\n"), strings.Count(s, " aborted ")))
}
