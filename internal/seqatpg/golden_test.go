package seqatpg

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/tpi"
)

var update = flag.Bool("update", false, "rewrite the search-decision golden file")

// TestDecisionGoldenUnrolled pins PODEM's search on a 3-frame unrolled
// model with multi-site injections: for every collapsed fault of
// s1423@0.05, the status, backtrack count and sorted per-frame
// assignment the engine returns before translation. The first half of
// the chain is controllable and the second half observable, as in an
// enhanced C/O model of step 3.
func TestDecisionGoldenUnrolled(t *testing.T) {
	p, err := gen.ProfileByName("s1423")
	if err != nil {
		t.Fatal(err)
	}
	d, err := tpi.Insert(gen.Generate(p.Scale(0.05), 1), tpi.Options{NumChains: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, obs := map[netlist.SignalID]bool{}, map[netlist.SignalID]bool{}
	ffs := d.Chains[0].FFs
	for i, ff := range ffs {
		if i < len(ffs)/2 {
			ctrl[ff] = true
		} else {
			obs[ff] = true
		}
	}
	m, err := Build(d, ctrl, obs, 3)
	if err != nil {
		t.Fatal(err)
	}
	uc := m.Circuit()
	var b strings.Builder
	for _, f := range fault.Collapsed(d.C) {
		injs := m.injections(f)
		if len(injs) == 0 {
			continue
		}
		res := m.eng.GenerateMulti(injs, 400)
		ids := make([]netlist.SignalID, 0, len(res.Assignment))
		for s := range res.Assignment {
			ids = append(ids, s)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Fprintf(&b, "%s %v bt=%d", f.Describe(d.C), res.Status, res.Backtracks)
		for _, s := range ids {
			fmt.Fprintf(&b, " %s=%v", uc.NameOf(s), res.Assignment[s])
		}
		b.WriteByte('\n')
	}
	got := b.String()

	path := filepath.Join("testdata", "decisions_s1423_tfx3.txt")
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
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("first difference at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, want %d", len(gl), len(wl))
	}
}
