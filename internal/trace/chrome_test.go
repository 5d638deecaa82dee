package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// chromeFile mirrors the Chrome trace-event JSON Object Format for
// validation: a traceEvents array of maps plus displayTimeUnit.
type chromeFile struct {
	TraceEvents     []map[string]any `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

// writeChrome assembles events under a fixed context and encodes the
// result, the way the CLIs' Session.Close does.
func writeChrome(t *testing.T, events []journal.Event, dropped int64) string {
	t.Helper()
	ctx := mustParse(t, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	var buf bytes.Buffer
	if err := WriteChrome(&buf, Assemble(ctx, SpanID{}, "run", events, 0), events, dropped); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// parseChrome decodes a Chrome trace or fails the test.
func parseChrome(t *testing.T, out string) chromeFile {
	t.Helper()
	var cf chromeFile
	if err := json.Unmarshal([]byte(out), &cf); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, out)
	}
	return cf
}

// fixedEvents is a hand-stamped timeline (Assemble reads TNS/DurNS
// from the events, so constructing them directly gives a deterministic
// trace).
func fixedEvents() []journal.Event {
	fk := journal.NewFaultKey(42, -1, -1, 1)
	return []journal.Event{
		{Kind: journal.KindPhaseBegin, Arg: "screen", TNS: 1000},
		{Kind: journal.KindCache, Arg: "engine", A: 0, TNS: 1500},
		{Kind: journal.KindBatch, Arg: "screen", Worker: 0, A: 0, B: 2, TNS: 2000, DurNS: 500_000},
		{Kind: journal.KindBatch, Arg: "screen", Worker: 1, A: 1, B: 2, TNS: 2500, DurNS: 400_000},
		{Kind: journal.KindClassify, A: int64(fk), B: 2, C: journal.LocChainSeg(0, 3), D: 7, Worker: 1, TNS: 300_000},
		{Kind: journal.KindPhaseEnd, Arg: "screen", TNS: 1000, DurNS: 600_000},
		{Kind: journal.KindATPG, Arg: "atpg.comb", A: int64(fk), B: 0, C: 12, TNS: 700_000, DurNS: 90_000},
		{Kind: journal.KindDetect, A: int64(fk), B: 17, Worker: 0, TNS: 900_000},
		{Kind: journal.KindPhaseBegin, Arg: "step2", TNS: 950_000}, // interrupted: never closed
		{Kind: journal.KindNote, Arg: "cancelled", TNS: 980_000},
	}
}

// TestWriteChromeSchema validates the exported JSON against the Chrome
// trace-event schema requirements: well-formed JSON, and for every
// event the required keys (ph, pid, tid, name, ts) with ph from the
// set the exporter uses, dur present exactly on complete events, and a
// scope on instant events.
func TestWriteChromeSchema(t *testing.T) {
	out := writeChrome(t, fixedEvents(), 3)
	cf := parseChrome(t, out)
	if cf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", cf.DisplayTimeUnit)
	}
	var phases, batches, unclosed, instants int
	for i, e := range cf.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "M", "X", "i":
		default:
			t.Fatalf("event %d: ph = %q not in {M,X,i}", i, ph)
		}
		for _, key := range []string{"pid", "tid", "name"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d (%v): missing %q", i, e, key)
			}
		}
		if ph == "M" {
			continue // metadata rows carry no timestamp
		}
		ts, ok := e["ts"].(float64)
		if !ok || ts < 0 {
			t.Fatalf("event %d: bad ts %v", i, e["ts"])
		}
		switch ph {
		case "X":
			if _, ok := e["dur"].(float64); !ok {
				t.Fatalf("event %d: complete event without dur", i)
			}
			switch e["cat"] {
			case SpanPhase:
				phases++
			case SpanPool:
				batches++
			}
			if args, _ := e["args"].(map[string]any); args["unclosed"] == true {
				unclosed++
			}
		case "i":
			if s, _ := e["s"].(string); s != "t" {
				t.Fatalf("event %d: instant scope = %v", i, e["s"])
			}
			instants++
		}
	}
	if phases != 2 || unclosed != 1 {
		t.Errorf("phase slices = %d (unclosed %d), want 2 (1): the interrupted phase is a slice too", phases, unclosed)
	}
	if batches != 2 {
		t.Errorf("batch slices = %d, want 2", batches)
	}
	// classify + detect + cache + note + dropped marker
	if instants != 5 {
		t.Errorf("instant events = %d, want 5", instants)
	}
	if !strings.Contains(out, "journal dropped 3 events") {
		t.Error("dropped-events marker missing")
	}
}

// TestWriteChromeGolden pins the exact serialization of a minimal
// fixed timeline: the exporter's output is a parsing contract for
// scripts, so format changes must be deliberate.
func TestWriteChromeGolden(t *testing.T) {
	events := []journal.Event{
		{Kind: journal.KindPhaseBegin, Arg: "screen", TNS: 1000},
		{Kind: journal.KindBatch, Arg: "screen", Worker: 0, A: 0, B: 1, TNS: 2000, DurNS: 500_000},
		{Kind: journal.KindPhaseEnd, Arg: "screen", TNS: 1000, DurNS: 600_000},
	}
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"fsct"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"flow"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"worker 0"}},
{"ph":"X","pid":1,"tid":0,"name":"run","cat":"root","ts":0.000,"dur":601.000,"args":{}},
{"ph":"X","pid":1,"tid":0,"name":"screen","cat":"phase","ts":1.000,"dur":600.000,"args":{}},
{"ph":"X","pid":1,"tid":1,"name":"screen","cat":"pool","ts":2.000,"dur":500.000,"args":{"worker":"0","index":"0","total":"1"}}
],"displayTimeUnit":"ms"}
`
	if got := writeChrome(t, events, 0); got != want {
		t.Errorf("trace golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteChromeCancelGolden pins the exported partial timeline of a
// sharded run canceled mid-flow: unit 0 completed (its nested phase
// closed), unit 1 was interrupted inside a nested phase — the unit and
// its outer phase never closed, so Assemble closes them at the end of
// the timeline and they are drawn as slices marked "unclosed":true,
// while the inner phase that did close renders as an ordinary slice.
// The exact bytes are pinned because operators diff partial traces
// from interrupted runs.
func TestWriteChromeCancelGolden(t *testing.T) {
	events := []journal.Event{
		{Kind: journal.KindUnitBegin, A: 0, B: 2, C: 0, D: 63, TNS: 1000},
		{Kind: journal.KindPhaseBegin, Arg: "faultsim.seq", TNS: 2000},
		{Kind: journal.KindPhaseEnd, Arg: "faultsim.seq", TNS: 2000, DurNS: 400_000},
		{Kind: journal.KindUnitEnd, A: 0, B: 2, C: 0, D: 63, TNS: 1000, DurNS: 500_000},
		{Kind: journal.KindUnitBegin, A: 1, B: 2, C: 63, D: 126, TNS: 600_000},
		{Kind: journal.KindPhaseBegin, Arg: "faultsim.seq", TNS: 610_000},
		{Kind: journal.KindPhaseBegin, Arg: "faultsim.compile", TNS: 620_000},
		{Kind: journal.KindPhaseEnd, Arg: "faultsim.compile", TNS: 620_000, DurNS: 30_000},
		{Kind: journal.KindNote, Arg: "canceled", TNS: 700_000},
	}
	want := `{"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"fsct"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"flow"}},
{"ph":"X","pid":1,"tid":0,"name":"run","cat":"root","ts":0.000,"dur":700.000,"args":{}},
{"ph":"X","pid":1,"tid":0,"name":"unit 0","cat":"unit","ts":1.000,"dur":500.000,"args":{"unit.index":"0","unit.count":"2","unit.lo":"0","unit.hi":"63"}},
{"ph":"X","pid":1,"tid":0,"name":"faultsim.seq","cat":"phase","ts":2.000,"dur":400.000,"args":{}},
{"ph":"X","pid":1,"tid":0,"name":"unit 1","cat":"unit","ts":600.000,"dur":100.000,"args":{"unit.index":"1","unit.count":"2","unit.lo":"63","unit.hi":"126","unclosed":true}},
{"ph":"X","pid":1,"tid":0,"name":"faultsim.seq","cat":"phase","ts":610.000,"dur":90.000,"args":{"unclosed":true}},
{"ph":"X","pid":1,"tid":0,"name":"faultsim.compile","cat":"phase","ts":620.000,"dur":30.000,"args":{}},
{"ph":"i","pid":1,"tid":0,"name":"canceled","cat":"note","ts":700.000,"s":"t","args":{}}
],"displayTimeUnit":"ms"}
`
	if got := writeChrome(t, events, 0); got != want {
		t.Errorf("cancel golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteChromeEmpty: an empty journal still yields a valid trace
// holding the root span.
func TestWriteChromeEmpty(t *testing.T) {
	cf := parseChrome(t, writeChrome(t, nil, 0))
	// process + flow thread metadata + the root slice.
	if len(cf.TraceEvents) != 3 {
		t.Errorf("got %d rows, want 3", len(cf.TraceEvents))
	}
}

// TestWriteChromeLiveRecorder: a trace exported from a recorder fed
// the normal way (Emit) is schema-valid too.
func TestWriteChromeLiveRecorder(t *testing.T) {
	r := journal.New(64)
	r.Emit(journal.PhaseBegin("p"))
	r.Emit(journal.Batch("pool", 2, 0, 4, 100*time.Microsecond))
	r.Emit(journal.PhaseEnd("p", time.Millisecond))
	var buf bytes.Buffer
	spans := Assemble(NewContext(), SpanID{}, "run", r.Snapshot(), r.Elapsed().Nanoseconds())
	if err := WriteChrome(&buf, spans, r.Snapshot(), r.Dropped()); err != nil {
		t.Fatal(err)
	}
	cf := parseChrome(t, buf.String())
	// 3 metadata rows (process, flow thread, worker 2 thread) + root,
	// phase and batch slices.
	if len(cf.TraceEvents) != 6 {
		t.Errorf("got %d rows, want 6", len(cf.TraceEvents))
	}
}

// TestWriteChromePooledATPG: an ATPG attempt a worker pool ran carries
// its worker as a span attribute and is drawn on that worker's thread;
// an attempt on the flow thread has no worker attribute and stays on
// tid 0.
func TestWriteChromePooledATPG(t *testing.T) {
	fk := journal.NewFaultKey(42, -1, -1, 1)
	serial := journal.ATPG("atpg.seq", fk, 2, 7, 50*time.Microsecond)
	serial.TNS = 1000
	pooled := journal.ATPG("atpg.final", fk, 2, 9, 80*time.Microsecond).OnWorker(1)
	pooled.TNS = 2000
	events := []journal.Event{serial, pooled}

	ctx := mustParse(t, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	spans := Assemble(ctx, SpanID{}, "run", events, 0)
	if got := spans[1].attr("worker"); got != "" {
		t.Errorf("flow-thread attempt has worker attribute %q", got)
	}
	if got := spans[2].attr("worker"); got != "1" {
		t.Errorf("pooled attempt worker attribute = %q, want 1", got)
	}

	tids := map[string]float64{}
	threads := map[float64]string{}
	for _, e := range parseChrome(t, writeChrome(t, events, 0)).TraceEvents {
		switch e["ph"] {
		case "X":
			tids[e["name"].(string)] = e["tid"].(float64)
		case "M":
			if e["name"] == "thread_name" {
				threads[e["tid"].(float64)] = e["args"].(map[string]any)["name"].(string)
			}
		}
	}
	if tids["atpg.seq"] != 0 {
		t.Errorf("flow-thread attempt drawn on tid %v, want 0", tids["atpg.seq"])
	}
	if tids["atpg.final"] != 2 || threads[2] != "worker 1" {
		t.Errorf("pooled attempt drawn on tid %v (%q), want 2 (\"worker 1\")", tids["atpg.final"], threads[2])
	}
}
