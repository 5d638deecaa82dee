// Package atpg implements PODEM, a complete combinational automatic
// test-pattern generator, over a dual-machine (fault-free / faulty)
// three-valued simulation with event-driven implication. Implication
// also maintains the D-frontier incrementally and evaluates the faulty
// machine only inside the fault's cone, so each search step costs work
// proportional to what the step changed, not to the size of the cone.
//
// The engine runs on a purely combinational circuit (no flip-flops);
// sequential circuits are first mapped with CombModel (flip-flop outputs
// become assignable pseudo-inputs, flip-flop D pins become observable
// pseudo-outputs) or unrolled by the seqatpg package. Inputs whose value
// is pinned by test point insertion are supplied as fixed assignments and
// never used as decision variables.
package atpg

import (
	"context"
	"fmt"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Status is the outcome of a PODEM run for one fault.
type Status int

// PODEM outcomes.
const (
	// Found: a test vector was generated.
	Found Status = iota
	// Redundant: the search space was exhausted, proving the fault
	// untestable in this combinational model (and therefore, for the
	// scan-mode model, sequentially undetectable — see the paper §4).
	Redundant
	// Aborted: the backtrack limit was reached before a decision.
	Aborted
)

func (s Status) String() string {
	switch s {
	case Found:
		return "found"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Result of generating a test for one fault.
type Result struct {
	Status     Status
	Assignment map[netlist.SignalID]logic.V // assigned free inputs (others X)
	Backtracks int
}

// Model is the combinational ATPG view: the circuit must contain no
// flip-flops; Fixed pins inputs to constant values (TPI assignments and
// scan_mode=1), all remaining inputs are decision variables.
type Model struct {
	C     *netlist.Circuit
	Fixed map[netlist.SignalID]logic.V
}

// NewModel validates that c is combinational and builds a model.
func NewModel(c *netlist.Circuit, fixed map[netlist.SignalID]logic.V) (*Model, error) {
	if len(c.FFs) != 0 {
		return nil, fmt.Errorf("atpg: model circuit %q contains flip-flops", c.Name)
	}
	if !c.Finalized() {
		return nil, fmt.Errorf("atpg: model circuit %q not finalized", c.Name)
	}
	return &Model{C: c, Fixed: fixed}, nil
}

// FreeInputs returns the decision inputs (inputs not fixed), in input
// order.
func (m *Model) FreeInputs() []netlist.SignalID {
	var free []netlist.SignalID
	for _, in := range m.C.Inputs {
		if _, ok := m.Fixed[in]; !ok {
			free = append(free, in)
		}
	}
	return free
}

// Engine is a reusable PODEM engine for one model. Not safe for
// concurrent use.
type Engine struct {
	m    *Model
	c    *netlist.Circuit
	good []logic.V
	flty []logic.V

	// Injection sites: a plain fault has one; a time-frame-expanded
	// fault has one per frame (the same physical defect replicated).
	// The maps are read only where a signal's fStem or fBranch bit is
	// set, keeping lookups off the per-gate evaluation path.
	injs     []sim.Inject
	stemInj  map[netlist.SignalID]logic.V
	brInj    map[netlist.SignalID][]sim.Inject // keyed by consuming gate
	obsDist  []int32
	buckets  [][]netlist.SignalID
	maxLevel int

	// flags holds per-signal bits (fQueued, fCone, fOut, fStem,
	// fBranch): one byte per signal, so drain's per-gate checks touch
	// one array.
	flags []uint8

	// Fault cone: the exact forward closure of the injection sites
	// (fCone). Only cone signals can carry a fault effect, so outside it
	// the faulty machine equals the good one and drain evaluates the
	// good machine alone; observation checks scan only the cone's
	// outputs (fOut).
	coneOutputs []netlist.SignalID

	// SCOAP controllability per signal (computed once per model).
	cc0, cc1 []int64

	// Epoch-tagged scratch for xPathExists.
	seenEpoch []uint32
	epoch     uint32

	// D-frontier, kept current by drain: the member gates in no
	// particular order, and each signal's index in that list (-1 when it
	// is not a member).
	frontier []netlist.SignalID
	fpos     []int32

	// Reused scratch: drain's good and faulty fanin values (sized to the
	// widest gate), the xPathExists DFS stack and the buildCone DFS
	// stack. Kept on the engine so the search loop never allocates.
	gin, fin  []logic.V
	xstack    []netlist.SignalID
	coneStack []netlist.SignalID

	// decision stack
	stack []decision

	// Observability sinks (nil-safe no-ops until Instrument is called).
	// They are touched once per Generate call, never inside the search
	// loop, so an uninstrumented engine pays only nil-receiver checks.
	obs engineObs
}

// engineObs holds the per-engine metric sinks. The zero value (all nil)
// is the disabled state.
type engineObs struct {
	generated  *obs.Counter
	found      *obs.Counter
	redundant  *obs.Counter
	aborted    *obs.Counter
	backtracks *obs.Counter
	hist       *obs.Histogram
}

// Instrument attaches the engine to a collector: every Generate /
// GenerateMulti call then records its outcome under prefix.* —
// generated, found, redundant and aborted call counts, a cumulative
// backtracks counter, and a backtracks histogram. A nil collector
// leaves the engine uninstrumented.
func (e *Engine) Instrument(col *obs.Collector, prefix string) {
	if !col.Enabled() {
		return
	}
	e.obs = engineObs{
		generated:  col.Counter(prefix + ".generated"),
		found:      col.Counter(prefix + ".found"),
		redundant:  col.Counter(prefix + ".redundant"),
		aborted:    col.Counter(prefix + ".aborted"),
		backtracks: col.Counter(prefix + ".backtracks"),
		hist:       col.Histogram(prefix + ".backtracks"),
	}
}

// record notes one completed generation attempt.
func (eo *engineObs) record(res *Result) {
	eo.generated.Inc()
	eo.backtracks.Add(int64(res.Backtracks))
	eo.hist.Observe(int64(res.Backtracks))
	switch res.Status {
	case Found:
		eo.found.Inc()
	case Redundant:
		eo.redundant.Inc()
	case Aborted:
		eo.aborted.Inc()
	}
}

type decision struct {
	pi        netlist.SignalID
	value     logic.V
	triedBoth bool
}

// Tables bundles the search-guidance structures PODEM derives once per
// (circuit, fixed-assignment) model: SCOAP 0/1 controllability per
// signal and the minimum gate-hop distance to an observation point.
// They are immutable after construction, depend only on the model (not
// on any fault), and are safe to share across engines and goroutines —
// the engine-layer artifact cache memoizes one Tables per model so
// step-2 and step-3 engines on the same scan-mode model stop recomputing
// them.
type Tables struct {
	CC0, CC1 []int64
	ObsDist  []int32
}

// SizeBytes estimates the tables' resident footprint for byte-budgeted
// caches (the engine layer memoizes one Tables per distinct fixed
// assignment).
func (t *Tables) SizeBytes() int64 {
	return int64(unsafe.Sizeof(*t)) +
		int64(cap(t.CC0)+cap(t.CC1))*8 +
		int64(cap(t.ObsDist))*4
}

// NewTables computes the SCOAP controllability and observation-distance
// tables for m.
func NewTables(m *Model) *Tables {
	t := &Tables{ObsDist: observationDistance(m.C)}
	t.CC0, t.CC1 = controllability(m)
	return t
}

// NewEngine builds an engine for m, computing fresh search tables.
func NewEngine(m *Model) *Engine {
	return NewEngineTables(m, NewTables(m))
}

// NewEngineTables builds an engine for m reusing precomputed search
// tables (which must have been built with NewTables on the same model).
// The engine only reads the tables, so any number of engines can share
// one Tables value.
func NewEngineTables(m *Model, t *Tables) *Engine {
	c := m.C
	e := &Engine{
		m:       m,
		c:       c,
		good:    make([]logic.V, len(c.Signals)),
		flty:    make([]logic.V, len(c.Signals)),
		flags:   make([]uint8, len(c.Signals)),
		stemInj: make(map[netlist.SignalID]logic.V),
		brInj:   make(map[netlist.SignalID][]sim.Inject),

		seenEpoch: make([]uint32, len(c.Signals)),
		fpos:      make([]int32, len(c.Signals)),
	}
	for i := range e.fpos {
		e.fpos[i] = -1
	}
	for _, l := range c.Level {
		if l > e.maxLevel {
			e.maxLevel = l
		}
	}
	width := 0
	for _, g := range c.Order {
		width = max(width, len(c.Signals[g].Fanin))
	}
	e.gin = make([]logic.V, 0, width)
	e.fin = make([]logic.V, 0, width)
	e.buckets = make([][]netlist.SignalID, e.maxLevel+1)
	e.obsDist = t.ObsDist
	e.cc0, e.cc1 = t.CC0, t.CC1
	return e
}

// ccInf is the saturation value for uncontrollable signals.
const ccInf = int64(1) << 40

// controllability computes SCOAP-style combinational 0/1
// controllability per signal, honouring fixed inputs (a pinned input is
// free to its pinned value and uncontrollable to the other; an input
// pinned to X is uncontrollable entirely). Backtrace uses these to pick
// cheap inputs when one controlling value suffices and hard inputs when
// every input must be justified.
func controllability(m *Model) (cc0, cc1 []int64) {
	c := m.C
	cc0 = make([]int64, len(c.Signals))
	cc1 = make([]int64, len(c.Signals))
	sat := func(a, b int64) int64 {
		s := a + b
		if s > ccInf {
			return ccInf
		}
		return s
	}
	for _, in := range c.Inputs {
		switch v, fixed := m.Fixed[in]; {
		case !fixed:
			cc0[in], cc1[in] = 1, 1
		case v == logic.Zero:
			cc0[in], cc1[in] = 0, ccInf
		case v == logic.One:
			cc0[in], cc1[in] = ccInf, 0
		default: // pinned X: uncontrollable
			cc0[in], cc1[in] = ccInf, ccInf
		}
	}
	for _, g := range c.Order {
		s := &c.Signals[g]
		switch s.Op {
		case logic.OpBuf:
			cc0[g], cc1[g] = sat(cc0[s.Fanin[0]], 1), sat(cc1[s.Fanin[0]], 1)
		case logic.OpNot:
			cc0[g], cc1[g] = sat(cc1[s.Fanin[0]], 1), sat(cc0[s.Fanin[0]], 1)
		case logic.OpConst0:
			cc0[g], cc1[g] = 0, ccInf
		case logic.OpConst1:
			cc0[g], cc1[g] = ccInf, 0
		case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
			ctrl, _ := s.Op.Controlling()
			// Cost of the controlled output: cheapest controlling input.
			// Cost of the other value: all inputs non-controlling.
			ctrlCost, allCost := ccInf, int64(0)
			for _, f := range s.Fanin {
				cCtrl, cNon := cc0[f], cc1[f]
				if ctrl == logic.One {
					cCtrl, cNon = cc1[f], cc0[f]
				}
				if cCtrl < ctrlCost {
					ctrlCost = cCtrl
				}
				allCost = sat(allCost, cNon)
			}
			ctrlCost = sat(ctrlCost, 1)
			allCost = sat(allCost, 1)
			controlledOut := ctrl
			if s.Op.Inverting() {
				controlledOut = ctrl.Not()
			}
			if controlledOut == logic.Zero {
				cc0[g], cc1[g] = ctrlCost, allCost
			} else {
				cc1[g], cc0[g] = ctrlCost, allCost
			}
		case logic.OpXor, logic.OpXnor:
			// Fold pairwise.
			a0, a1 := int64(0), ccInf // accumulator starts at constant 0
			for i, f := range s.Fanin {
				b0, b1 := cc0[f], cc1[f]
				if i == 0 {
					a0, a1 = b0, b1
					continue
				}
				n0 := min64(sat(a0, b0), sat(a1, b1))
				n1 := min64(sat(a0, b1), sat(a1, b0))
				a0, a1 = n0, n1
			}
			if s.Op == logic.OpXnor {
				a0, a1 = a1, a0
			}
			cc0[g], cc1[g] = sat(a0, 1), sat(a1, 1)
		}
	}
	return cc0, cc1
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// cc returns the controllability cost of setting signal s to v.
func (e *Engine) cc(s netlist.SignalID, v logic.V) int64 {
	if v == logic.Zero {
		return e.cc0[s]
	}
	return e.cc1[s]
}

// observationDistance computes, per signal, the minimum number of gate
// hops to any primary output (used to rank D-frontier gates).
func observationDistance(c *netlist.Circuit) []int32 {
	const inf = int32(1) << 30
	dist := make([]int32, len(c.Signals))
	for i := range dist {
		dist[i] = inf
	}
	queue := make([]netlist.SignalID, 0, len(c.Outputs))
	for _, o := range c.Outputs {
		if dist[o] != 0 {
			dist[o] = 0
			queue = append(queue, o)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, f := range c.Signals[s].Fanin {
			if dist[f] > dist[s]+1 {
				dist[f] = dist[s] + 1
				queue = append(queue, f)
			}
		}
	}
	return dist
}

// Generate runs PODEM for fault f with the given backtrack limit.
func (e *Engine) Generate(f fault.Fault, backtrackLimit int) Result {
	return e.GenerateMulti([]sim.Inject{f.Inject()}, backtrackLimit)
}

// GenerateCtx is Generate with cooperative cancellation: the search
// checks ctx at backtrack boundaries and, once cancelled, returns an
// Aborted result together with the context error. A nil context (or a
// context that never fires) makes it exactly Generate.
func (e *Engine) GenerateCtx(ctx context.Context, f fault.Fault, backtrackLimit int) (Result, error) {
	return e.GenerateMultiCtx(ctx, []sim.Inject{f.Inject()}, backtrackLimit)
}

// GenerateMulti runs PODEM for a fault present at several injection
// sites simultaneously — the time-frame-expansion case, where one
// physical defect appears once per unrolled frame. A test is found when
// any site activates and its effect reaches an output.
func (e *Engine) GenerateMulti(injs []sim.Inject, backtrackLimit int) Result {
	res, _ := e.generateMulti(nil, injs, backtrackLimit)
	e.obs.record(&res)
	return res
}

// GenerateMultiCtx is GenerateMulti with the cancellation semantics of
// GenerateCtx.
func (e *Engine) GenerateMultiCtx(ctx context.Context, injs []sim.Inject, backtrackLimit int) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{Status: Aborted}, err
		}
	}
	res, cancelled := e.generateMulti(ctx, injs, backtrackLimit)
	e.obs.record(&res)
	if cancelled {
		return res, ctx.Err()
	}
	return res, nil
}

// ctxCheckMask throttles cancellation polling: the context is consulted
// once every ctxCheckMask+1 backtracks, keeping the check off the
// per-decision path while still bounding the post-cancel latency to a
// handful of backtracks.
const ctxCheckMask = 15

func (e *Engine) generateMulti(ctx context.Context, injs []sim.Inject, backtrackLimit int) (res Result, cancelled bool) {
	e.loadFault(injs)
	e.reset()

	backtracks := 0
	for {
		e.drain()
		if e.observedD() {
			return Result{Status: Found, Assignment: e.assignment(), Backtracks: backtracks}, false
		}
		ok := e.feasible()
		if ok {
			obj, objOK := e.objective()
			if objOK {
				pi, v, btOK := e.backtrace(obj.sig, obj.val)
				if btOK {
					e.stack = append(e.stack, decision{pi: pi, value: v})
					e.assign(pi, v)
					continue
				}
			}
			ok = false
		}
		// Dead end: backtrack.
		flipped := false
		for len(e.stack) > 0 {
			top := &e.stack[len(e.stack)-1]
			if !top.triedBoth {
				top.triedBoth = true
				top.value = top.value.Not()
				e.assign(top.pi, top.value)
				backtracks++
				flipped = true
				break
			}
			e.assign(top.pi, logic.X)
			e.stack = e.stack[:len(e.stack)-1]
		}
		if !flipped {
			return Result{Status: Redundant, Backtracks: backtracks}, false
		}
		if backtracks > backtrackLimit {
			return Result{Status: Aborted, Backtracks: backtracks}, false
		}
		if ctx != nil && backtracks&ctxCheckMask == 0 && ctx.Err() != nil {
			return Result{Status: Aborted, Backtracks: backtracks}, true
		}
	}
}

type objectiveT struct {
	sig netlist.SignalID
	val logic.V
}

// Per-signal flag bits.
const (
	fQueued uint8 = 1 << iota // in a level bucket, awaiting evaluation
	fCone                     // in the fault cone
	fOut                      // an observation point in the cone
	fStem                     // a stem injection on the signal
	fBranch                   // a branch injection into the gate
)

func (e *Engine) loadFault(injs []sim.Inject) {
	for _, in := range e.injs {
		if in.IsStem() {
			e.flags[in.Signal] &^= fStem
		} else {
			e.flags[in.Gate] &^= fBranch
		}
	}
	e.injs = append(e.injs[:0], injs...)
	clear(e.stemInj)
	clear(e.brInj)
	for _, in := range injs {
		if in.IsStem() {
			e.stemInj[in.Signal] = in.Value
			e.flags[in.Signal] |= fStem
		} else {
			e.brInj[in.Gate] = append(e.brInj[in.Gate], in)
			e.flags[in.Gate] |= fBranch
		}
	}
	e.stack = e.stack[:0]
	e.buildCone()
}

// buildCone collects the fanout cone of every injection site: the only
// region where fault effects can live.
func (e *Engine) buildCone() {
	for i := range e.flags {
		e.flags[i] &^= fCone | fOut
	}
	e.coneOutputs = e.coneOutputs[:0]
	stack := e.coneStack[:0]
	push := func(s netlist.SignalID) {
		if e.flags[s]&fCone == 0 {
			e.flags[s] |= fCone
			stack = append(stack, s)
		}
	}
	for _, in := range e.injs {
		if in.IsStem() {
			push(in.Signal)
		} else {
			push(in.Gate)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range e.c.Fanouts[s] {
			push(fo)
		}
	}
	e.coneStack = stack[:0]
	for _, o := range e.c.Outputs {
		if e.flags[o]&(fCone|fOut) == fCone {
			e.flags[o] |= fOut
			e.coneOutputs = append(e.coneOutputs, o)
		}
	}
}

// reset initializes values: everything X, fixed inputs assigned, full
// propagation. With every value X the D-frontier is empty.
func (e *Engine) reset() {
	for i := range e.good {
		e.good[i] = logic.X
		e.flty[i] = logic.X
		e.flags[i] &^= fQueued
	}
	for _, g := range e.frontier {
		e.fpos[g] = -1
	}
	e.frontier = e.frontier[:0]
	for i := range e.buckets {
		e.buckets[i] = e.buckets[i][:0]
	}
	for _, in := range e.c.Inputs {
		v, fixed := e.m.Fixed[in]
		if !fixed {
			v = logic.X
		}
		e.setInput(in, v)
	}
	e.drain()
}

// setInput writes an input value into both machines (honouring a stem
// fault on the input in the faulty machine) and schedules its fanout.
func (e *Engine) setInput(in netlist.SignalID, v logic.V) {
	e.good[in] = v
	fv := v
	if e.flags[in]&fStem != 0 {
		fv = e.stemInj[in]
	}
	e.flty[in] = fv
	for _, fo := range e.c.Fanouts[in] {
		e.schedule(fo)
	}
}

func (e *Engine) assign(pi netlist.SignalID, v logic.V) {
	e.setInput(pi, v)
}

// schedule queues gate s for evaluation. Its callers pass only fanouts,
// which in a combinational model (NewModel rejects flip-flops) are
// always gates.
func (e *Engine) schedule(s netlist.SignalID) {
	if e.flags[s]&fQueued != 0 {
		return
	}
	e.flags[s] |= fQueued
	lvl := e.c.Level[s]
	e.buckets[lvl] = append(e.buckets[lvl], s)
}

// drain runs event-driven levelized propagation until stable and keeps
// the D-frontier current. A gate's membership depends only on its own
// values and its fanins' values. A fanin change schedules the gate, its
// own value changes only when drain evaluates it, and levelized order
// evaluates it after its last fanin change, so re-checking each
// evaluated cone gate here is exact.
func (e *Engine) drain() {
	for lvl := 1; lvl <= e.maxLevel; lvl++ {
		bucket := e.buckets[lvl]
		for i := 0; i < len(bucket); i++ {
			g := bucket[i]
			flag := e.flags[g] &^ fQueued
			e.flags[g] = flag
			s := &e.c.Signals[g]
			gin := e.gin[:0]
			if flag&fCone == 0 {
				// No fault effect reaches here: faulty equals good.
				for _, f := range s.Fanin {
					gin = append(gin, e.good[f])
				}
				if gv := s.Op.Eval(gin); gv != e.good[g] {
					e.good[g] = gv
					e.flty[g] = gv
					for _, fo := range e.c.Fanouts[g] {
						e.schedule(fo)
					}
				}
				continue
			}
			fin := e.fin[:0]
			for _, f := range s.Fanin {
				gin = append(gin, e.good[f])
				fin = append(fin, e.flty[f])
			}
			gv := s.Op.Eval(gin)
			if flag&fBranch != 0 {
				for _, br := range e.brInj[g] {
					fin[br.Pin] = br.Value
				}
			}
			fv := s.Op.Eval(fin)
			if flag&fStem != 0 {
				fv = e.stemInj[g]
			}
			if gv != e.good[g] || fv != e.flty[g] {
				e.good[g] = gv
				e.flty[g] = fv
				for _, fo := range e.c.Fanouts[g] {
					e.schedule(fo)
				}
			}
			e.setFrontier(g, !(gv.Known() && fv.Known()) && anyD(gin, fin))
		}
		e.buckets[lvl] = e.buckets[lvl][:0]
	}
}

// anyD reports whether some input pair carries a fault effect: definite
// and different in the two machines.
func anyD(gin, fin []logic.V) bool {
	for i, gv := range gin {
		if fv := fin[i]; gv.Known() && fv.Known() && gv != fv {
			return true
		}
	}
	return false
}

// setFrontier makes g a D-frontier member or not. Removal swaps the last
// member into g's slot, so both directions are O(1).
func (e *Engine) setFrontier(g netlist.SignalID, member bool) {
	p := e.fpos[g]
	if member == (p >= 0) {
		return
	}
	if member {
		e.fpos[g] = int32(len(e.frontier))
		e.frontier = append(e.frontier, g)
		return
	}
	last := e.frontier[len(e.frontier)-1]
	e.frontier[p] = last
	e.fpos[last] = p
	e.frontier = e.frontier[:len(e.frontier)-1]
	e.fpos[g] = -1
}

// hasD reports whether signal s carries a fault effect (definite and
// different in the two machines).
func (e *Engine) hasD(s netlist.SignalID) bool {
	return e.good[s].Known() && e.flty[s].Known() && e.good[s] != e.flty[s]
}

// observedD reports whether any primary output carries a fault effect.
func (e *Engine) observedD() bool {
	for _, o := range e.coneOutputs {
		if e.hasD(o) {
			return true
		}
	}
	return false
}

// activated reports whether some injection site currently sees opposite
// definite values in the two machines.
func (e *Engine) activated() bool {
	for _, in := range e.injs {
		gv := e.good[in.Signal]
		if gv.Known() && gv != in.Value {
			return true
		}
	}
	return false
}

// activationPending reports whether some site could still activate (its
// source value is undetermined).
func (e *Engine) activationPending() bool {
	for _, in := range e.injs {
		if e.good[in.Signal] == logic.X {
			return true
		}
	}
	return false
}

// feasible checks whether the current partial assignment can still lead
// to a test: either some site can still activate, or an activated
// effect has a D-frontier with an X-path to an output.
func (e *Engine) feasible() bool {
	if e.activated() {
		if len(e.frontier) > 0 && e.xPathExists(e.frontier) {
			return true
		}
	}
	return e.activationPending()
}

// xPathExists reports whether some frontier gate reaches an output
// through signals undetermined in at least one machine.
func (e *Engine) xPathExists(frontier []netlist.SignalID) bool {
	e.epoch++
	ep := e.epoch
	stack := append(e.xstack[:0], frontier...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.seenEpoch[s] == ep {
			continue
		}
		e.seenEpoch[s] = ep
		if e.isOutput(s) {
			e.xstack = stack[:0]
			return true
		}
		for _, fo := range e.c.Fanouts[s] {
			if e.seenEpoch[fo] != ep && (!e.good[fo].Known() || !e.flty[fo].Known()) {
				stack = append(stack, fo)
			}
		}
	}
	e.xstack = stack[:0]
	return false
}

func (e *Engine) isOutput(s netlist.SignalID) bool { return e.flags[s]&fOut != 0 }

// objective picks the next (signal, value) goal: activate the fault if
// not yet activated, otherwise advance the best D-frontier gate by
// setting one of its undetermined side inputs to the non-controlling
// value. The best gate is the one nearest an output, ties going to the
// lowest (level, ID) — the first in c.Order, which Finalize sorts that
// way — so the choice does not depend on the frontier list's order.
func (e *Engine) objective() (objectiveT, bool) {
	frontier := e.frontier
	if !e.activated() || len(frontier) == 0 {
		// Work on activating a pending site.
		for _, in := range e.injs {
			if e.good[in.Signal] == logic.X {
				return objectiveT{sig: in.Signal, val: in.Value.Not()}, true
			}
		}
		return objectiveT{}, false
	}
	best := frontier[0]
	for _, g := range frontier[1:] {
		if e.before(g, best) {
			best = g
		}
	}
	s := &e.c.Signals[best]
	nc, hasNC := s.Op.NonControlling()
	pick := netlist.None
	for _, f := range s.Fanin {
		if e.good[f] != logic.X {
			continue
		}
		if !hasNC {
			return objectiveT{sig: f, val: logic.Zero}, true // XOR/XNOR side: any definite value
		}
		if pick == netlist.None || e.cc(f, nc) < e.cc(pick, nc) {
			pick = f
		}
	}
	if pick == netlist.None {
		return objectiveT{}, false
	}
	return objectiveT{sig: pick, val: nc}, true
}

// before orders D-frontier gates by (observation distance, level, ID).
func (e *Engine) before(a, b netlist.SignalID) bool {
	if da, db := e.obsDist[a], e.obsDist[b]; da != db {
		return da < db
	}
	if la, lb := e.c.Level[a], e.c.Level[b]; la != lb {
		return la < lb
	}
	return a < b
}

// backtrace maps an objective back to an unassigned decision input,
// choosing easy (minimum level) inputs when a single controlling value
// suffices and hard (maximum level) inputs when all inputs must be set.
func (e *Engine) backtrace(sig netlist.SignalID, val logic.V) (netlist.SignalID, logic.V, bool) {
	for {
		s := &e.c.Signals[sig]
		if s.Kind == netlist.KindInput {
			if _, fixed := e.m.Fixed[sig]; fixed {
				return netlist.None, logic.X, false
			}
			if e.good[sig] != logic.X {
				return netlist.None, logic.X, false
			}
			return sig, val, true
		}
		op := s.Op
		switch op {
		case logic.OpBuf:
			sig = s.Fanin[0]
		case logic.OpNot:
			sig = s.Fanin[0]
			val = val.Not()
		case logic.OpConst0, logic.OpConst1:
			return netlist.None, logic.X, false
		case logic.OpXor, logic.OpXnor:
			// Target the first undetermined input; required value assumes
			// remaining X inputs resolve to 0.
			acc := logic.Zero
			var pick netlist.SignalID = netlist.None
			for _, f := range s.Fanin {
				if e.good[f] == logic.X && pick == netlist.None {
					pick = f
					continue
				}
				acc = acc.Xor(e.good[f])
			}
			if pick == netlist.None {
				return netlist.None, logic.X, false
			}
			want := val
			if op == logic.OpXnor {
				want = want.Not()
			}
			if acc.Known() {
				want = want.Xor(acc)
			}
			if !want.Known() {
				want = logic.Zero
			}
			sig, val = pick, want
		default:
			ctrl, _ := op.Controlling()
			inv := op.Inverting()
			controlledOut := ctrl
			if inv {
				controlledOut = ctrl.Not()
			}
			if val == controlledOut {
				// One controlling input suffices: pick the cheapest
				// (SCOAP) undetermined input.
				pick := netlist.None
				for _, f := range s.Fanin {
					if e.good[f] != logic.X {
						continue
					}
					if pick == netlist.None || e.cc(f, ctrl) < e.cc(pick, ctrl) {
						pick = f
					}
				}
				if pick == netlist.None {
					return netlist.None, logic.X, false
				}
				sig, val = pick, ctrl
			} else {
				// All inputs must be non-controlling: pick the hardest
				// (highest SCOAP cost) undetermined input first.
				pick := netlist.None
				nc := ctrl.Not()
				for _, f := range s.Fanin {
					if e.good[f] != logic.X {
						continue
					}
					if pick == netlist.None || e.cc(f, nc) > e.cc(pick, nc) {
						pick = f
					}
				}
				if pick == netlist.None {
					return netlist.None, logic.X, false
				}
				sig, val = pick, nc
			}
		}
	}
}

// assignment snapshots the current free-input assignment.
func (e *Engine) assignment() map[netlist.SignalID]logic.V {
	out := make(map[netlist.SignalID]logic.V, len(e.stack))
	for _, d := range e.stack {
		out[d.pi] = d.value
	}
	return out
}
