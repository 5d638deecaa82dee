package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// shardedTrace is a 3-unit sharded run: unit 1 is the slowest (the
// straggler), and its faultsim.seq phase with the faultsim pool span
// inside holds nearly all of its time.
func shardedTrace() trace.Trace {
	id := func(b byte) trace.SpanID { return trace.SpanID{7: b} }
	ctx := trace.Context{
		Trace: trace.TraceID{15: 0xaa},
		Span:  id(1),
		Flags: trace.FlagSampled,
	}
	return trace.Trace{
		Ctx:      ctx,
		OriginNS: 1_700_000_000_000_000_000,
		Resource: []trace.Attr{{Key: "kind", Value: "faultsim"}, {Key: "circuit", Value: "s3384"}},
		Spans: []trace.Span{
			{Name: "job j000042", Kind: trace.SpanRoot, ID: id(1), StartNS: 0, EndNS: 1_000_000},
			{Name: "unit 0", Kind: trace.SpanUnit, ID: id(2), Parent: id(1), StartNS: 10_000, EndNS: 400_000},
			{Name: "unit 1", Kind: trace.SpanUnit, ID: id(3), Parent: id(1), StartNS: 10_000, EndNS: 990_000},
			{Name: "unit 2", Kind: trace.SpanUnit, ID: id(4), Parent: id(1), StartNS: 10_000, EndNS: 600_000},
			{Name: "faultsim.seq", Kind: trace.SpanPhase, ID: id(5), Parent: id(3), StartNS: 20_000, EndNS: 970_000},
			{Name: "faultsim", Kind: trace.SpanPool, ID: id(6), Parent: id(5), StartNS: 30_000, EndNS: 960_000},
			{Name: "faultsim.seq", Kind: trace.SpanPhase, ID: id(7), Parent: id(2), StartNS: 20_000, EndNS: 390_000},
		},
	}
}

// TestAnalyzeTraceCriticalPath pins the acceptance criterion: on a
// 3-unit sharded run, the reported critical path is the slowest unit's
// chain, root to leaf.
func TestAnalyzeTraceCriticalPath(t *testing.T) {
	rep := analyzeTrace(shardedTrace())
	if rep.Root != "job j000042" || rep.RootNS != 1_000_000 || rep.Spans != 7 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	var names []string
	for _, st := range rep.Critical {
		names = append(names, st.Name)
	}
	want := []string{"job j000042", "unit 1", "faultsim.seq", "faultsim"}
	if strings.Join(names, ">") != strings.Join(want, ">") {
		t.Fatalf("critical path = %v, want %v (the slowest unit's chain)", names, want)
	}
	if rep.Critical[1].DurNS != 980_000 {
		t.Fatalf("critical unit dur = %d, want 980000", rep.Critical[1].DurNS)
	}

	if s := rep.Straggler; s == nil || s.Unit != "unit 1" || s.DurNS != 980_000 ||
		s.Phase != "faultsim.seq" || s.PhaseNS != 950_000 {
		t.Fatalf("straggler attribution wrong: %+v", rep.Straggler)
	}

	// Phase table: both faultsim.seq spans aggregate into one row; its
	// self time excludes the pool child inside unit 1's instance.
	if len(rep.Phases) != 1 {
		t.Fatalf("phase rows = %+v, want one aggregated faultsim.seq", rep.Phases)
	}
	p := rep.Phases[0]
	if p.Name != "faultsim.seq" || p.Count != 2 || p.TotalNS != 950_000+370_000 ||
		p.ChildNS != 930_000 || p.SelfNS != p.TotalNS-p.ChildNS || p.MaxNS != 950_000 {
		t.Fatalf("phase aggregate wrong: %+v", p)
	}
}

// TestTraceReportRoundTripFile: the OTLP file a session exports is
// exactly what the subcommand reads back, and the rendered report
// carries the headline facts.
func TestTraceReportRoundTripFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteOTLP(f, shardedTrace()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := readTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	renderTraceReport(&b, analyzeTrace(tr), 10)
	out := b.String()
	for _, want := range []string{
		"trace 000000000000000000000000000000aa — job j000042 (1ms, 7 spans)",
		"resource: kind=faultsim circuit=s3384",
		"critical path",
		"unit 1",
		"straggler: unit 1 (980µs, 98% of job j000042) — dominant phase faultsim.seq (950µs)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestFetchTraceFromDaemon drives the HTTP fetch path against a canned
// trace endpoint.
func TestFetchTraceFromDaemon(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/trace/j000042", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = trace.WriteOTLP(w, shardedTrace())
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	tr, err := fetchTrace(srv.URL, "j000042")
	if err != nil {
		t.Fatal(err)
	}
	rep := analyzeTrace(tr)
	if len(rep.Critical) != 4 || rep.Critical[1].Name != "unit 1" {
		t.Fatalf("fetched critical path wrong: %+v", rep.Critical)
	}
	if _, err := fetchTrace(srv.URL, "missing"); err == nil {
		t.Fatal("404 must surface as an error")
	}
}

// flowTrace is a one-unit flow shaped like full-scale s5378: the steps
// run one after another, step 2 holds 2.40 s of 3.09 s and step 3 (27
// ms) finishes last. Step 3 alternates ATPG attempts with confirmation
// fault simulations.
func flowTrace() trace.Trace {
	id := func(b byte) trace.SpanID { return trace.SpanID{7: b} }
	const ms = 1_000_000
	return trace.Trace{
		Ctx: trace.Context{Trace: trace.TraceID{15: 0xbb}, Span: id(1), Flags: trace.FlagSampled},
		Spans: []trace.Span{
			{Name: "fsctest", Kind: trace.SpanRoot, ID: id(1), StartNS: 0, EndNS: 3_090 * ms},
			{Name: "unit 0", Kind: trace.SpanUnit, ID: id(2), Parent: id(1), StartNS: 5 * ms, EndNS: 3_085 * ms},
			{Name: "screen", Kind: trace.SpanPhase, ID: id(3), Parent: id(2), StartNS: 10 * ms, EndNS: 73 * ms},
			{Name: "step1.alternating", Kind: trace.SpanPhase, ID: id(4), Parent: id(2), StartNS: 80 * ms, EndNS: 600 * ms},
			{Name: "step2", Kind: trace.SpanPhase, ID: id(5), Parent: id(2), StartNS: 610 * ms, EndNS: 3_010 * ms},
			{Name: "faultsim", Kind: trace.SpanPool, ID: id(6), Parent: id(5), StartNS: 700 * ms, EndNS: 3_000 * ms},
			{Name: "step3", Kind: trace.SpanPhase, ID: id(7), Parent: id(2), StartNS: 3_020 * ms, EndNS: 3_047 * ms},
			{Name: "atpg.seq", Kind: trace.SpanATPG, ID: id(8), Parent: id(7), StartNS: 3_021 * ms, EndNS: 3_025 * ms},
			{Name: "faultsim", Kind: trace.SpanPool, ID: id(9), Parent: id(7), StartNS: 3_025 * ms, EndNS: 3_030 * ms},
			{Name: "atpg.seq", Kind: trace.SpanATPG, ID: id(10), Parent: id(7), StartNS: 3_030 * ms, EndNS: 3_040 * ms},
			{Name: "faultsim", Kind: trace.SpanPool, ID: id(11), Parent: id(7), StartNS: 3_040 * ms, EndNS: 3_046 * ms},
		},
	}
}

// TestAnalyzeTraceStep2Dominates: in a sequential flow the critical
// path lists every step, so the dominant step 2 is on it although step
// 3 finishes last, and step 3's alternating leaves fold into one row
// per name.
func TestAnalyzeTraceStep2Dominates(t *testing.T) {
	rep := analyzeTrace(flowTrace())
	var got []string
	for _, st := range rep.Critical {
		got = append(got, fmt.Sprintf("%d:%s×%d=%dms", st.Depth, st.Name, st.Count, st.DurNS/1_000_000))
	}
	want := []string{
		"0:fsctest×1=3090ms", "1:unit 0×1=3080ms",
		"2:screen×1=63ms", "2:step1.alternating×1=520ms",
		"2:step2×1=2400ms", "3:faultsim×1=2300ms",
		"2:step3×1=27ms", "3:atpg.seq×2=14ms", "3:faultsim×2=11ms",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("critical path =\n%v\nwant\n%v", got, want)
	}
	var b strings.Builder
	renderTraceReport(&b, rep, 10)
	out := b.String()
	for _, line := range []string{"    step2 ", "      atpg.seq ×2 "} {
		if !strings.Contains(out, line) {
			t.Errorf("report missing %q:\n%s", line, out)
		}
	}
}
