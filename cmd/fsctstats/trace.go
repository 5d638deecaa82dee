package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// runTraceCmd is the trace subcommand: critical-path analysis over an
// exported span tree — either an -otlpfile written by a CLI run or a
// live/terminal job fetched from a daemon with -addr/-job. Returns the
// process exit code.
func runTraceCmd(args []string) int {
	fs := flag.NewFlagSet("fsctstats trace", flag.ExitOnError)
	var (
		otlp    = fs.String("otlp", "", "analyze this OTLP/JSON trace `file` (a CLI run's -otlpfile)")
		addr    = fs.String("addr", "localhost:8341", "fsctd daemon `address` for -job")
		job     = fs.String("job", "", "fetch this job `id`'s span tree from the daemon at -addr")
		top     = fs.Int("top", 10, "show the N largest phases in the self-time table")
		jsonOut = fs.Bool("json", false, "machine-readable JSON output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*otlp == "") == (*job == "") {
		fmt.Fprintln(os.Stderr, "fsctstats trace: exactly one of -otlp or -job is required")
		return 2
	}
	var (
		tr  trace.Trace
		err error
	)
	if *otlp != "" {
		tr, err = readTraceFile(*otlp)
	} else {
		tr, err = fetchTrace(*addr, *job)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsctstats: %v\n", err)
		return 1
	}
	rep := analyzeTrace(tr)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "fsctstats: %v\n", err)
			return 1
		}
		return 0
	}
	renderTraceReport(os.Stdout, rep, *top)
	return 0
}

func readTraceFile(path string) (trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Trace{}, err
	}
	defer f.Close()
	return trace.ReadOTLP(f)
}

// fetchTrace pulls a job's span tree off a daemon's trace endpoint.
func fetchTrace(addr, job string) (trace.Trace, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	resp, err := http.Get(base + "/api/v1/trace/" + job)
	if err != nil {
		return trace.Trace{}, fmt.Errorf("is fsctd running at %s? %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return trace.Trace{}, fmt.Errorf("GET /api/v1/trace/%s: status %d", job, resp.StatusCode)
	}
	return trace.ReadOTLP(resp.Body)
}

// critStep is one span of the critical path, or several same-named
// leaf spans on one parent's chain folded into one row (Count > 1,
// durations summed). Depth is the span's depth below the root.
type critStep struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Depth    int    `json:"depth"`
	Count    int    `json:"count,omitempty"`
	DurNS    int64  `json:"dur_ns"`
	SelfNS   int64  `json:"self_ns"`
	Unclosed bool   `json:"unclosed,omitempty"`
}

// phaseStat aggregates every span sharing one phase name.
type phaseStat struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
	ChildNS int64  `json:"child_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// stragglerInfo names the unit that bounds the run's wall time and the
// phase inside it where that time went.
type stragglerInfo struct {
	Unit    string  `json:"unit"`
	DurNS   int64   `json:"dur_ns"`
	Share   float64 `json:"share"` // fraction of the root span's duration
	Phase   string  `json:"phase,omitempty"`
	PhaseNS int64   `json:"phase_ns,omitempty"`
}

// traceReport is the trace subcommand's analysis of one span tree.
type traceReport struct {
	TraceID   string         `json:"trace_id"`
	Root      string         `json:"root"`
	RootNS    int64          `json:"root_ns"`
	Spans     int            `json:"spans"`
	Unclosed  int            `json:"unclosed"`
	Resource  []trace.Attr   `json:"resource,omitempty"`
	Critical  []critStep     `json:"critical_path"`
	Phases    []phaseStat    `json:"phases,omitempty"`
	Straggler *stragglerInfo `json:"straggler,omitempty"`
}

// analyzeTrace derives the report: the critical path (the spans that
// bound wall time, see trace.CriticalPath), per-phase
// self-vs-child time, and straggler attribution (the slowest unit and
// its dominant phase). Pure function of the trace, so tests feed it
// fixtures.
func analyzeTrace(tr trace.Trace) traceReport {
	rep := traceReport{
		TraceID:  tr.Ctx.Trace.String(),
		Spans:    len(tr.Spans),
		Resource: tr.Resource,
	}
	root := trace.BuildTree(tr.Spans)
	if root == nil {
		return rep
	}
	rep.Root = root.Span.Name
	rep.RootNS = root.Span.DurNS()
	for i := range tr.Spans {
		if tr.Spans[i].Unclosed {
			rep.Unclosed++
		}
	}
	rep.Critical = criticalSteps(trace.CriticalPath(root))
	byName := map[string]*phaseStat{}
	var order []string
	var slowest *trace.Node
	var walk func(n *trace.Node)
	walk = func(n *trace.Node) {
		switch n.Span.Kind {
		case trace.SpanPhase:
			st := byName[n.Span.Name]
			if st == nil {
				st = &phaseStat{Name: n.Span.Name}
				byName[n.Span.Name] = st
				order = append(order, n.Span.Name)
			}
			st.Count++
			st.TotalNS += n.Span.DurNS()
			st.SelfNS += trace.SelfNS(n)
			if d := n.Span.DurNS(); d > st.MaxNS {
				st.MaxNS = d
			}
		case trace.SpanUnit:
			if slowest == nil || n.Span.DurNS() > slowest.Span.DurNS() {
				slowest = n
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for _, name := range order {
		st := byName[name]
		st.ChildNS = st.TotalNS - st.SelfNS
		rep.Phases = append(rep.Phases, *st)
	}
	sort.SliceStable(rep.Phases, func(i, j int) bool { return rep.Phases[i].TotalNS > rep.Phases[j].TotalNS })
	if slowest != nil {
		info := &stragglerInfo{Unit: slowest.Span.Name, DurNS: slowest.Span.DurNS()}
		if rep.RootNS > 0 {
			info.Share = float64(info.DurNS) / float64(rep.RootNS)
		}
		// Dominant phase: the longest single phase span anywhere under
		// the straggling unit — where its wall time actually went.
		var dig func(n *trace.Node)
		dig = func(n *trace.Node) {
			if n.Span.Kind == trace.SpanPhase && n.Span.DurNS() > info.PhaseNS {
				info.Phase, info.PhaseNS = n.Span.Name, n.Span.DurNS()
			}
			for _, c := range n.Children {
				dig(c)
			}
		}
		dig(slowest)
		rep.Straggler = info
	}
	return rep
}

// criticalSteps turns the critical path into report rows. A phase's
// chain can hold hundreds of sequential leaves (one per ATPG attempt or
// pool item), so leaves on one parent's chain that share a name and
// kind fold into the row of the first of them.
func criticalSteps(path []trace.Step) []critStep {
	type leafKey struct {
		parent     int // row of the parent span
		name, kind string
	}
	var rows []critStep
	parentRow := []int{} // parentRow[d]: row of the last span at depth d
	leafRow := map[leafKey]int{}
	for _, st := range path {
		n := st.Node
		parentRow = parentRow[:st.Depth]
		if len(n.Children) == 0 && st.Depth > 0 {
			k := leafKey{parentRow[st.Depth-1], n.Span.Name, n.Span.Kind}
			if i, ok := leafRow[k]; ok {
				r := &rows[i]
				r.Count++
				r.DurNS += n.Span.DurNS()
				r.SelfNS += n.Span.DurNS()
				r.Unclosed = r.Unclosed || n.Span.Unclosed
				continue
			}
			leafRow[k] = len(rows)
		}
		parentRow = append(parentRow, len(rows))
		rows = append(rows, critStep{
			Name: n.Span.Name, Kind: n.Span.Kind, Depth: st.Depth, Count: 1,
			DurNS: n.Span.DurNS(), SelfNS: trace.SelfNS(n),
			Unclosed: n.Span.Unclosed,
		})
	}
	return rows
}

// renderTraceReport writes the human-oriented form: header, resource
// line, the critical path as an indented chain, the top-N phase table
// and the straggler line.
func renderTraceReport(w io.Writer, rep traceReport, top int) {
	fmt.Fprintf(w, "trace %s — %s (%s, %d spans", rep.TraceID, rep.Root,
		fmtSpanDur(time.Duration(rep.RootNS)), rep.Spans)
	if rep.Unclosed > 0 {
		fmt.Fprintf(w, ", %d unclosed", rep.Unclosed)
	}
	fmt.Fprintln(w, ")")
	if len(rep.Resource) > 0 {
		parts := make([]string, 0, len(rep.Resource))
		for _, a := range rep.Resource {
			parts = append(parts, a.Key+"="+a.Value)
		}
		fmt.Fprintf(w, "resource: %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintln(w, "\ncritical path (the chain that bounds wall time):")
	for _, st := range rep.Critical {
		tag := ""
		if st.Unclosed {
			tag = "  (unclosed)"
		}
		name := st.Name
		if st.Count > 1 {
			name = fmt.Sprintf("%s ×%d", name, st.Count)
		}
		d := min(st.Depth, 10)
		fmt.Fprintf(w, "  %s%-*s %8s  self %s%s\n",
			strings.Repeat("  ", d), 24-2*d, name,
			fmtSpanDur(time.Duration(st.DurNS)), fmtSpanDur(time.Duration(st.SelfNS)), tag)
	}
	if len(rep.Phases) > 0 {
		fmt.Fprintln(w, "\nphases (self vs child time):")
		fmt.Fprintf(w, "  %-24s %5s %10s %10s %10s %10s\n", "name", "count", "total", "self", "child", "max")
		for i, p := range rep.Phases {
			if top > 0 && i >= top {
				fmt.Fprintf(w, "  … %d more\n", len(rep.Phases)-top)
				break
			}
			fmt.Fprintf(w, "  %-24s %5d %10s %10s %10s %10s\n", p.Name, p.Count,
				fmtSpanDur(time.Duration(p.TotalNS)), fmtSpanDur(time.Duration(p.SelfNS)),
				fmtSpanDur(time.Duration(p.ChildNS)), fmtSpanDur(time.Duration(p.MaxNS)))
		}
	}
	if s := rep.Straggler; s != nil {
		fmt.Fprintf(w, "\nstraggler: %s (%s, %.0f%% of %s)", s.Unit,
			fmtSpanDur(time.Duration(s.DurNS)), 100*s.Share, rep.Root)
		if s.Phase != "" {
			fmt.Fprintf(w, " — dominant phase %s (%s)", s.Phase, fmtSpanDur(time.Duration(s.PhaseNS)))
		}
		fmt.Fprintln(w)
	}
}

// fmtSpanDur renders a span duration at trace-appropriate precision —
// spans are often sub-millisecond, where the dashboard's fmtDur
// rounding would collapse them.
func fmtSpanDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
