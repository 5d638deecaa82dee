// Chrome trace-event export: the assembled span tree serialized in the
// trace-event JSON format (the "JSON Object Format" with a traceEvents
// array), loadable directly by chrome://tracing and by Perfetto's
// legacy-trace importer. It is the second encoder of the tree Assemble
// builds (WriteOTLP is the first), so the two files always show the
// same spans with the same intervals.
//
// Mapping:
//
//   - root, unit, phase and ATPG spans become complete ("X") events on
//     the flow thread (tid 0), categorized by span kind;
//   - pool spans, and ATPG spans a worker pool ran, become "X" events
//     on their worker's own thread (tid = worker+1, from the span's
//     worker attribute);
//   - span attributes become the event's args; spans Assemble closed
//     administratively (a canceled run) carry "unclosed":true and end
//     where Assemble closed them;
//   - the journal's instant kinds (classify, detect, cache, note)
//     become thread-scoped instant ("i") events.
//
// Timestamps are microseconds from the recorder origin, as the format
// requires.

package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/journal"
)

// ProcessName is the service name both exporters stamp on a trace.
const ProcessName = "fsct"

// WriteChrome serializes spans (as returned by Assemble over events)
// in Chrome trace-event format, plus the instant events of the journal
// buffer they were assembled from. dropped, when non-zero, is recorded
// as an instant event at the root span's end so a truncated journal is
// visible in the viewer.
func WriteChrome(w io.Writer, spans []Span, events []journal.Event, dropped int64) error {
	bw := bufio.NewWriter(w)
	tw := chromeWriter{w: bw, first: true}
	tw.printf(`{"traceEvents":[`)

	// Thread-naming metadata precedes the samples: the flow thread, then
	// one thread per worker in order of first appearance.
	tw.meta(0, "process_name", ProcessName)
	tw.meta(0, "thread_name", "flow")
	tids := make([]int, len(spans))
	seen := map[int]bool{}
	for i, sp := range spans {
		w := sp.attr("worker")
		if w == "" {
			continue
		}
		worker, _ := strconv.Atoi(w)
		tids[i] = worker + 1
		if !seen[worker] {
			seen[worker] = true
			tw.meta(worker+1, "thread_name", "worker "+strconv.Itoa(worker))
		}
	}

	for i, sp := range spans {
		tw.row(fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"name":%q,"cat":%q,"ts":%s,"dur":%s,"args":%s}`,
			tids[i], sp.Name, sp.Kind, usec(sp.StartNS), usec(sp.DurNS()), spanArgs(sp)))
	}
	for _, e := range events {
		switch e.Kind {
		case journal.KindPhaseBegin, journal.KindPhaseEnd, journal.KindUnitBegin,
			journal.KindUnitEnd, journal.KindBatch, journal.KindATPG:
			// Drawn above as spans.
		case journal.KindClassify:
			chain, seg := journal.UnpackLoc(e.C)
			tw.instant("classify", "screen", int(e.Worker)+1, e.TNS,
				fmt.Sprintf(`{"fault":%d,"category":%d,"chain":%d,"seg":%d,"net":%d}`, e.A, e.B, chain, seg, e.D))
		case journal.KindDetect:
			tw.instant("detect", "faultsim", int(e.Worker)+1, e.TNS,
				fmt.Sprintf(`{"fault":%d,"cycle":%d}`, e.A, e.B))
		case journal.KindCache:
			verdict := "miss"
			if e.A != 0 {
				verdict = "hit"
			}
			tw.instant(e.Arg+" "+verdict, "cache", 0, e.TNS, "{}")
		default:
			tw.instant(e.Arg, "note", 0, e.TNS, "{}")
		}
	}
	if dropped > 0 && len(spans) > 0 {
		tw.instant(fmt.Sprintf("journal dropped %d events", dropped), "note", 0, spans[0].EndNS, "{}")
	}
	tw.printf("\n],\"displayTimeUnit\":\"ms\"}\n")
	if tw.err != nil {
		return tw.err
	}
	return bw.Flush()
}

// attr returns the value of the span's attribute key, or "".
func (s Span) attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// spanArgs renders a span's attributes, and its unclosed mark, as a
// Chrome args object.
func spanArgs(sp Span) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range sp.Attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%q", a.Key, a.Value)
	}
	if sp.Unclosed {
		if len(sp.Attrs) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"unclosed":true`)
	}
	b.WriteByte('}')
	return b.String()
}

// chromeWriter emits the JSON by hand: every row has the same small
// shape, and hand-writing keeps the exporter allocation-light and the
// output stable for the golden tests.
type chromeWriter struct {
	w     io.Writer
	err   error
	first bool
}

func (t *chromeWriter) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

func (t *chromeWriter) row(body string) {
	sep := ",\n"
	if t.first {
		sep = "\n"
		t.first = false
	}
	t.printf("%s%s", sep, body)
}

func (t *chromeWriter) meta(tid int, name, value string) {
	t.row(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":%q,"args":{"name":%q}}`, tid, name, value))
}

func (t *chromeWriter) instant(name, cat string, tid int, tns int64, args string) {
	t.row(fmt.Sprintf(`{"ph":"i","pid":1,"tid":%d,"name":%q,"cat":%q,"ts":%s,"s":"t","args":%s}`,
		tid, name, cat, usec(tns), args))
}

// usec renders a nanosecond offset as microseconds with sub-μs decimals
// preserved (the format's ts/dur unit).
func usec(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64)
}
