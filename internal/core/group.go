package core

import (
	"context"
	"runtime"
	"slices"

	"repro/internal/atpg"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/seqatpg"
)

// fillTries is the number of fills the final pass confirms per fresh
// vector: the zero fill and eight pseudo-random ones.
const fillTries = 9

// vectorFills converts vector v into one single-vector scan sequence per
// fill of its don't-care flip-flop bits: first filled with zeros, then
// with tries-1 deterministic pseudo-random patterns seeded by the fault
// f. The fill changes the chain data surrounding the corrupted capture,
// and with it whether the effect survives the shift-out.
func vectorFills(d *scan.Design, f fault.Fault, v scan.Vector, tries int) []faultsim.Sequence {
	rng := uint64(f.Signal)<<40 ^ uint64(f.Gate)<<16 ^ uint64(f.Pin)<<8 ^ uint64(f.Stuck) ^ 0x9e3779b97f4a7c15
	next := func() logic.V {
		rng = rng*6364136223846793005 + 1442695040888963407
		return logic.V((rng >> 33) & 1)
	}
	seqs := make([]faultsim.Sequence, tries)
	for try := range seqs {
		vv := scan.Vector{FFs: make(map[netlist.SignalID]logic.V, len(d.C.FFs)), PIs: v.PIs}
		for k, val := range v.FFs {
			vv.FFs[k] = val
		}
		if try > 0 {
			for _, ff := range d.C.FFs {
				if _, ok := vv.FFs[ff]; !ok {
					vv.FFs[ff] = next()
				}
			}
		}
		seqs[try] = faultsim.Sequence(d.ConvertVectors([]scan.Vector{vv}))
	}
	return seqs
}

// fillHits reports, per fault, whether any of the fillTries fills of its
// vector detects it, confirming every fill of every fault in one
// faultsim.Confirm call.
func fillHits(ctx context.Context, d *scan.Design, faults []fault.Fault, vectors []scan.Vector, p Params) ([]bool, error) {
	trials := make([]faultsim.Trial, 0, len(faults)*fillTries)
	for i, f := range faults {
		for _, seq := range vectorFills(d, f, vectors[i], fillTries) {
			trials = append(trials, faultsim.Trial{Seq: seq, Fault: f})
		}
	}
	det, err := faultsim.Confirm(ctx, d.C, trials, p.simOptions(true))
	if err != nil {
		return nil, err
	}
	hits := make([]bool, len(faults))
	for i := range hits {
		hits[i] = slices.ContainsFunc(det[i*fillTries:(i+1)*fillTries], func(cyc int) bool { return cyc >= 0 })
	}
	return hits, nil
}

// coModel describes one increased-controllability/observability circuit
// (the paper's n-m.C,o-p.O): which flip-flops are treated as directly
// controllable and which D pins as directly observable, plus the faults
// to target on it.
type coModel struct {
	ctrl, obs map[netlist.SignalID]bool
	frames    int
	faults    []Screened
}

// span returns max(l_i) - min(l_j) of a single-chain fault.
func span(s *Screened) int {
	first, last, _ := s.Span()
	return last.Seg - first.Seg
}

// buildCO derives the enhanced sets for a fault cluster on one chain:
// the chain's flip-flops before location firstSeg are controllable, the
// ones from location lastSeg on are observable (their D pins are where
// the last corruption enters), and every flip-flop of an unaffected
// chain is both.
func buildCO(d *scan.Design, chain, firstSeg, lastSeg int, affected map[int]bool) (ctrl, obs map[netlist.SignalID]bool) {
	ctrl = make(map[netlist.SignalID]bool)
	obs = make(map[netlist.SignalID]bool)
	for ci := range d.Chains {
		ch := &d.Chains[ci]
		if ci != chain && !affected[ci] {
			for _, ff := range ch.FFs {
				ctrl[ff] = true
				obs[ff] = true
			}
			continue
		}
		if ci != chain {
			continue // affected other chain: no enhancement there
		}
		for pos, ff := range ch.FFs {
			if pos < firstSeg {
				ctrl[ff] = true
			}
			if pos >= lastSeg && lastSeg < ch.Len() {
				obs[ff] = true
			}
		}
	}
	return ctrl, obs
}

// planGroups implements the paper's grouping (Section 5): multi-chain
// and wide-span faults form group 1 (individual models), medium spans
// form group 2 (one model per seed fault, compatible faults ride along),
// and the rest are partitioned into minimal DIST-wide clusters.
func planGroups(d *scan.Design, remaining []Screened, p Params) []coModel {
	var models []coModel
	frames := func(sp int) int {
		f := sp + 2
		if f > p.MaxFrames {
			f = p.MaxFrames
		}
		if f < 2 {
			f = 2
		}
		return f
	}

	var group1, group2 []Screened
	perChain := make(map[int][]Screened) // group 3, keyed by chain
	for _, s := range remaining {
		if len(s.Locs) == 0 {
			// Defensive: treat as group 1 with no enhancement.
			group1 = append(group1, s)
			continue
		}
		first, _, multi := s.Span()
		switch {
		case multi:
			group1 = append(group1, s)
		case len(s.Locs) > 1 && span(&s) >= p.LargeDist:
			group1 = append(group1, s)
		case len(s.Locs) > 1 && span(&s) >= p.MedDist:
			group2 = append(group2, s)
		default:
			perChain[first.Chain] = append(perChain[first.Chain], s)
		}
	}

	affectedChains := func(s *Screened) map[int]bool {
		m := map[int]bool{}
		for _, l := range s.Locs {
			m[l.Chain] = true
		}
		return m
	}

	// Group 1: one maximally-enhanced model per fault.
	for _, s := range group1 {
		if len(s.Locs) == 0 {
			models = append(models, coModel{frames: frames(0), faults: []Screened{s}})
			continue
		}
		first, last, multi := s.Span()
		aff := affectedChains(&s)
		var ctrl, obs map[netlist.SignalID]bool
		if multi {
			// Enhance only the unaffected chains.
			ctrl, obs = buildCO(d, -1, 0, 0, aff)
		} else {
			ctrl, obs = buildCO(d, first.Chain, first.Seg, last.Seg, aff)
		}
		models = append(models, coModel{ctrl: ctrl, obs: obs, frames: frames(span(&s)), faults: []Screened{s}})
	}

	// Group 2: a model per seed fault; compatible group-2/3 faults of the
	// same chain whose span fits inside the seed's window join it.
	taken := make(map[*Screened]bool)
	slices.SortStableFunc(group2, func(a, b Screened) int { return span(&b) - span(&a) })
	for i := range group2 {
		s := &group2[i]
		if taken[s] {
			continue
		}
		taken[s] = true
		first, last, _ := s.Span()
		aff := affectedChains(s)
		ctrl, obs := buildCO(d, first.Chain, first.Seg, last.Seg, aff)
		m := coModel{ctrl: ctrl, obs: obs, frames: frames(span(s)), faults: []Screened{*s}}
		for j := i + 1; j < len(group2); j++ {
			o := &group2[j]
			of, ol, om := o.Span()
			if !taken[o] && !om && of.Chain == first.Chain && of.Seg >= first.Seg && ol.Seg <= last.Seg {
				taken[o] = true
				m.faults = append(m.faults, *o)
			}
		}
		models = append(models, m)
	}

	// Group 3: per chain, minimal number of DIST-wide windows (greedy
	// interval cover over sorted first-locations).
	for chain, faults := range perChain {
		slices.SortStableFunc(faults, func(a, b Screened) int {
			fa, _, _ := a.Span()
			fb, _, _ := b.Span()
			return fa.Seg - fb.Seg
		})
		i := 0
		for i < len(faults) {
			first, last, _ := faults[i].Span()
			lo := first.Seg
			hi := last.Seg
			cluster := []Screened{faults[i]}
			j := i + 1
			for j < len(faults) {
				_, jl, _ := faults[j].Span()
				nhi := hi
				if jl.Seg > nhi {
					nhi = jl.Seg
				}
				if nhi-lo > p.Dist {
					break
				}
				hi = nhi
				cluster = append(cluster, faults[j])
				j++
			}
			aff := map[int]bool{chain: true}
			ctrl, obs := buildCO(d, chain, lo, hi, aff)
			models = append(models, coModel{ctrl: ctrl, obs: obs, frames: frames(hi - lo), faults: cluster})
			i = j
		}
	}
	return models
}

// runStep3 runs grouped sequential ATPG with confirmation fault
// simulation, then a final per-fault pass with a larger effort budget,
// then a random-vector rescue of whatever is still open, under the
// phases step3.groups, step3.final and step3.rescue.
//
// Undetectability is only ever claimed on a sound basis: combinational
// redundancy of the scan-mode model (which implies sequential
// undetectability, Section 4) proven with the large final backtrack
// budget. Exhausting a bounded-frame enhanced model is NOT such a proof
// — the enhanced model under-approximates what long shift sequences can
// set up — so those faults stay "undetected".
func runStep3(ctx context.Context, d *scan.Design, remaining []Screened, p Params, rep *Report) error {
	if len(remaining) == 0 {
		return nil
	}
	models := planGroups(d, remaining, p)
	rep.COCircuits = len(models)
	status := make(map[fault.Fault]byte) // 0 open, 1 detected, 2 undetectable

	span := p.Obs.Phase("step3.groups")
	finalQueue, err := runGroups(ctx, d, models, p, rep, status)
	span.End()
	if err != nil {
		return err
	}

	// With more than one worker the random rescue starts with the final
	// pass, over every fault it targets, and runs beside stages (a) and
	// (b). A fault's rescue verdict does not depend on its batch mates,
	// so rescuing this superset gives the same verdicts as rescuing only
	// what the final pass leaves open; when (a) and (b) leave nothing
	// open, the rescue is cancelled. It is joined before stage (c),
	// whose per-fault unrolled models are step 3's largest allocations.
	span = p.Obs.Phase("step3.final")
	var early *rescueRun
	if len(finalQueue) > 0 && par.Workers(p.Workers) > 1 {
		early = startRescue(ctx, d, finalQueue, p)
	}
	open, err := runFinal(ctx, d, finalQueue, p, status)
	if early != nil {
		if len(open) == 0 {
			early.stop()
		}
		<-early.done
	}
	if err == nil {
		err = finalSeqATPG(ctx, d, open, p, rep, status)
	}
	span.End()
	if err != nil {
		return err
	}

	span = p.Obs.Phase("step3.rescue")
	err = finishRescue(ctx, d, finalQueue, early, p, status)
	span.End()
	if err != nil {
		return err
	}

	for _, s := range remaining {
		switch status[s.Fault] {
		case 1:
			rep.Step3.Detected++
		case 2:
			rep.Step3.Undetectable++
		default:
			rep.Step3.Undetected++
			rep.UndetectedFaults = append(rep.UndetectedFaults, s.Fault)
		}
	}
	return nil
}

// runGroups runs sequential ATPG on every fault of every grouped C/O
// model (planGroups puts each fault in exactly one), then confirms all
// generated sequences in one faultsim.Confirm call. Confirmed faults are
// marked detected; the rest are returned, in model order, for the final
// pass.
func runGroups(ctx context.Context, d *scan.Design, models []coModel, p Params, rep *Report, status map[fault.Fault]byte) ([]Screened, error) {
	rec := p.Obs.Journal()
	type attempt struct {
		s     Screened
		trial int // index into trials; -1 when no sequence was generated
	}
	var attempts []attempt
	var trials []faultsim.Trial
	for _, m := range models {
		tm, err := seqatpg.Build(d, m.ctrl, m.obs, m.frames)
		if err != nil {
			return nil, err
		}
		tm.Instrument(p.Obs, "atpg.seq")
		for _, s := range m.faults {
			done := timeATPG(rec, "atpg.seq", s.Fault)
			res, err := tm.GenerateCtx(ctx, s.Fault, p.SeqBacktracks)
			if err != nil {
				return nil, err
			}
			done(res.Status, res.Backtracks)
			a := attempt{s: s, trial: -1}
			if res.Status == atpg.Found {
				a.trial = len(trials)
				trials = append(trials, faultsim.Trial{Seq: faultsim.Sequence(res.Sequence), Fault: s.Fault})
			}
			attempts = append(attempts, a)
		}
	}
	det, err := faultsim.Confirm(ctx, d.C, trials, p.simOptions(true))
	if err != nil {
		return nil, err
	}
	var queue []Screened
	for _, a := range attempts {
		switch {
		case a.trial < 0:
			queue = append(queue, a.s)
		case det[a.trial] >= 0:
			status[a.s.Fault] = 1
		default:
			rep.TranslationMiss++
			queue = append(queue, a.s)
		}
	}
	return queue, nil
}

// runFinal runs the first two stages of the final pass, which targets
// each leftover fault individually with the large budget, and returns
// the faults still open, in queue order, for stage (c) (finalSeqATPG).
// A fault's outcome in each stage depends only on that fault, so
// running the stages one after the other over the whole queue yields
// the same verdicts and counts as taking each fault through all three
// in turn.
//
//   - (a) A deep combinational attempt per fault: a redundancy proof or
//     a fresh vector (finalCombATPG, fanned out over p.Workers).
//   - (b) Every fill of every fresh vector, confirmed in one call: the
//     step-2 set may simply have masked the fault's effect during
//     scan-out, and whether the corrupted capture survives the shift
//     depends on the surrounding chain data.
//   - (c) Maximally-enhanced sequential ATPG on what is still open.
func runFinal(ctx context.Context, d *scan.Design, queue []Screened, p Params, status map[fault.Fault]byte) ([]Screened, error) {
	if len(queue) == 0 {
		return nil, nil
	}
	comb, err := finalCombATPG(ctx, d, queue, p)
	if err != nil {
		return nil, err
	}

	var found []fault.Fault
	var vectors []scan.Vector
	for i, r := range comb {
		if r.Status != atpg.Found {
			continue
		}
		v := scan.Vector{
			FFs: make(map[netlist.SignalID]logic.V),
			PIs: make(map[netlist.SignalID]logic.V),
		}
		for in, val := range r.Assignment {
			if d.C.IsFF(in) {
				v.FFs[in] = val
			} else {
				v.PIs[in] = val
			}
		}
		found = append(found, queue[i].Fault)
		vectors = append(vectors, v)
	}
	hits, err := fillHits(ctx, d, found, vectors, p)
	if err != nil {
		return nil, err
	}

	var open []Screened
	k, filled := 0, int64(0)
	for i, s := range queue {
		switch comb[i].Status {
		case atpg.Redundant:
			status[s.Fault] = 2
			continue
		case atpg.Found:
			k++
			if hits[k-1] {
				status[s.Fault] = 1
				filled++
				continue
			}
		}
		open = append(open, s)
	}
	p.Obs.Counter("step3.fill_hits").Add(filled)
	return open, nil
}

// finalCombATPG is the final pass's stage (a): one PODEM attempt per
// queued fault on the scan-mode combinational model with the final
// budget. Attempts are spread over p.Workers, one engine per worker on
// the cached model and SCOAP tables (step 2 asked for the same circuit
// and fixed assignment, so nothing is recomputed), and results land in
// queue order.
//
// In a partial-scan design the model would wrongly treat non-scan
// flip-flops as loadable and their D pins as observable, so no attempt
// runs there and every fault reads Aborted (the paper's partial-scan
// setting relies on random vectors and sequential ATPG only).
func finalCombATPG(ctx context.Context, d *scan.Design, queue []Screened, p Params) ([]atpg.Result, error) {
	res := make([]atpg.Result, len(queue))
	for i := range res {
		res[i].Status = atpg.Aborted
	}
	if d.Partial() {
		return res, nil
	}
	arts := engine.Resolve(p.Engine).ForObs(d.C, p.Obs)
	cm, err := arts.CombModel()
	if err != nil {
		return nil, err
	}
	fixed := make(map[netlist.SignalID]logic.V, len(d.Assignments))
	for k, v := range d.Assignments {
		fixed[k] = v
	}
	model, tables, err := arts.CombSearch(fixed)
	if err != nil {
		return nil, err
	}

	rec := p.Obs.Journal()
	workers := min(par.Workers(p.Workers), len(queue))
	engines := par.NewPerWorker(workers, func() *atpg.Engine {
		e := atpg.NewEngineTables(model, tables)
		e.Instrument(p.Obs, "atpg.final")
		return e
	})
	err = par.DoCtx(ctx, workers, len(queue), func(worker, i int) {
		f := queue[i].Fault
		done := timeATPGOn(rec, "atpg.final", f, worker)
		r, err := engines.Get(worker).GenerateCtx(ctx, cm.MapFault(f), p.FinalBacktracks)
		if err != nil {
			return // cancelled; DoCtx returns the context error
		}
		done(r.Status, r.Backtracks)
		res[i] = r
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// finalSeqATPG is the final pass's stage (c): for each still-open fault
// in turn, sequential ATPG on a maximally-enhanced model with the final
// budget, one model at a time; the generated sequences are confirmed in
// one call.
func finalSeqATPG(ctx context.Context, d *scan.Design, open []Screened, p Params, rep *Report, status map[fault.Fault]byte) error {
	rec := p.Obs.Journal()
	var trials []faultsim.Trial
	for _, s := range open {
		var ctrl, obs map[netlist.SignalID]bool
		fr := 2
		if len(s.Locs) > 0 {
			first, last, multi := s.Span()
			aff := map[int]bool{}
			for _, l := range s.Locs {
				aff[l.Chain] = true
			}
			if multi {
				ctrl, obs = buildCO(d, -1, 0, 0, aff)
				fr = p.MaxFrames
			} else {
				ctrl, obs = buildCO(d, first.Chain, first.Seg, last.Seg, aff)
				fr = span(&s) + 2
			}
		}
		if fr > p.MaxFrames+2 {
			fr = p.MaxFrames + 2
		}
		rep.FinalCOCircuits++
		// The previous fault's model is garbage by now. Collect it before
		// building the next: without the pause the heap grows to hold
		// both, and a collection that spans the hand-over can mark two
		// models live at once (up to +1.3 MiB peak live heap on
		// s9234@0.5, where a 7-frame model is 4.3 MiB).
		runtime.GC()
		tm, err := seqatpg.Build(d, ctrl, obs, fr)
		if err != nil {
			return err
		}
		tm.Instrument(p.Obs, "atpg.seq")
		done := timeATPG(rec, "atpg.seq", s.Fault)
		res, err := tm.GenerateCtx(ctx, s.Fault, p.FinalBacktracks)
		if err != nil {
			return err
		}
		done(res.Status, res.Backtracks)
		// Redundant here means only "no test within the bounded enhanced
		// model" — not a proof; the fault stays undetected.
		if res.Status == atpg.Found {
			trials = append(trials, faultsim.Trial{Seq: faultsim.Sequence(res.Sequence), Fault: s.Fault})
		}
	}
	det, err := faultsim.Confirm(ctx, d.C, trials, p.simOptions(true))
	if err != nil {
		return err
	}
	for i, tr := range trials {
		if det[i] >= 0 {
			status[tr.Fault] = 1
		} else {
			rep.TranslationMiss++
		}
	}
	return nil
}

// rescueRun is a random-vector rescue simulation, possibly still
// running; done closes once res and err are set, and stop cancels it.
type rescueRun struct {
	faults []fault.Fault
	res    *faultsim.Result
	err    error
	done   chan struct{}
	stop   context.CancelFunc
}

// startRescue starts the random-vector rescue of faults on its own
// goroutine.
func startRescue(ctx context.Context, d *scan.Design, faults []Screened, p Params) *rescueRun {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, stop := context.WithCancel(ctx)
	r := &rescueRun{faults: make([]fault.Fault, len(faults)), done: make(chan struct{}), stop: stop}
	for i, s := range faults {
		r.faults[i] = s.Fault
	}
	go func() {
		defer close(r.done)
		defer stop()
		seq := randomSequence(d, 120*d.MaxChainLen()+512, 0x5eed)
		r.res, r.err = faultsim.RunCtx(ctx, d.C, seq, r.faults, p.simOptions(true))
	}()
	return r
}

// finishRescue is the last resort before declaring faults undetected: a
// burst of random scan-mode vectors. Faults whose activation state can
// only be established THROUGH their own corrupted segment resist
// directed generation (the models treat those flip-flops as
// uncontrollable), but a lucky random load may still set it up. Every
// fault of queue still open is marked detected if the burst detects it.
// run, when non-nil, is a finished rescue over all of queue (cancelled
// only when nothing was left open); otherwise the burst runs now, over
// just the faults still open.
func finishRescue(ctx context.Context, d *scan.Design, queue []Screened, run *rescueRun, p Params, status map[fault.Fault]byte) error {
	var still []Screened
	for _, s := range queue {
		if status[s.Fault] == 0 {
			still = append(still, s)
		}
	}
	if len(still) == 0 {
		return nil
	}
	if run == nil {
		run = startRescue(ctx, d, still, p)
	}
	<-run.done
	if run.err != nil {
		return run.err
	}
	rescued := int64(0)
	for k, f := range run.faults {
		if status[f] == 0 && run.res.DetectedAt[k] >= 0 {
			status[f] = 1
			rescued++
		}
	}
	p.Obs.Counter("step3.random_rescued").Add(rescued)
	return nil
}

// randomSequence builds a scan-mode input sequence with random values on
// every unpinned input (scan-ins included), deterministic in seed.
func randomSequence(d *scan.Design, cycles int, seed uint64) faultsim.Sequence {
	rng := seed
	next := func() logic.V {
		rng = rng*6364136223846793005 + 1442695040888963407
		return logic.V((rng >> 33) & 1)
	}
	seq := make(faultsim.Sequence, cycles)
	for t := range seq {
		pi := d.BaselinePI()
		for i, in := range d.C.Inputs {
			if _, pinned := d.Assignments[in]; !pinned {
				pi[i] = next()
			}
		}
		seq[t] = pi
	}
	return seq
}
