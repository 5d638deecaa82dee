package faultsim

import (
	"context"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/sim"
)

// Trial is one confirmation: a test sequence and the single fault it
// was generated for.
type Trial struct {
	Seq   Sequence
	Fault fault.Fault
}

// pairsPerWord is the number of trials one 64-lane word carries: each
// trial takes a (fault-free, faulty) lane pair.
const pairsPerWord = 32

// evenLanes selects the fault-free lane of every pair.
const evenLanes = 0x5555555555555555

// Confirm fault-simulates each trial's sequence against the trial's own
// fault and returns, per trial, the first detecting cycle or -1: entry
// i equals RunCtx(ctx, c, trials[i].Seq, []fault.Fault{trials[i].Fault},
// opts).DetectedAt[0].
//
// Up to 32 trials share one packed word as lane pairs: lane 2k is trial
// k's fault-free machine and lane 2k+1 its faulty machine, both driven
// by trial k's stimulus. A pair detects where its two lanes carry
// opposite definite values on a primary output, and only at cycles
// inside its own sequence. A batch stops once every trial in it is
// detected or past its sequence end. Batches are sharded over
// opts.Workers; each writes only its own result slots, so the result is
// identical at any worker count.
//
// Only the compiled sweep carries per-lane stimuli, so opts.Eval and
// opts.ConeThreshold are ignored (the backends agree on every run), as
// is opts.StopWhenAllDetected (stopping early cannot change a first
// detection). opts.InitState applies to every trial. Cancellation
// behaves as in RunCtx: unfinished trials read -1 and the context error
// is returned.
func Confirm(ctx context.Context, c *netlist.Circuit, trials []Trial, opts Options) ([]int, error) {
	det := make([]int, len(trials))
	for i := range det {
		det[i] = -1
	}
	if len(trials) == 0 {
		if ctx != nil {
			return det, ctx.Err()
		}
		return det, nil
	}

	col := opts.Obs
	prog := engine.Resolve(opts.Cache).ForObs(c, col).Program(col)
	batches := par.Chunks(len(trials), pairsPerWord)
	workers := min(par.Workers(opts.Workers), len(batches))
	if col.Enabled() {
		col.Counter("faultsim.confirm.calls").Inc()
		col.Counter("faultsim.confirm.trials").Add(int64(len(trials)))
		col.Counter("faultsim.batches").Add(int64(len(batches)))
	}
	cycleCtr := col.Counter("faultsim.cycles")
	earlyCtr := col.Counter("faultsim.early_exits")
	rec := col.Journal()

	type wstate struct {
		ps   *sim.CompiledSeq
		piW  []logic.Word
		poW  []logic.Word
		injs []sim.LaneInject
	}
	states := par.NewPerWorker(workers, func() *wstate {
		return &wstate{
			ps:   sim.NewCompiledSeqFrom(prog),
			piW:  make([]logic.Word, len(c.Inputs)),
			injs: make([]sim.LaneInject, 0, pairsPerWord),
		}
	})
	body := func(worker, bi int) {
		st := states.Get(worker)
		b := trials[batches[bi].Lo:batches[bi].Hi]
		st.injs = st.injs[:0]
		longest := 0
		for k, tr := range b {
			st.injs = append(st.injs, sim.LaneInject{Inject: tr.Fault.Inject(), Lane: uint(2*k + 1)})
			longest = max(longest, len(tr.Seq))
		}
		ps := st.ps
		ps.SetInjections(st.injs)
		ps.ResetX()
		for i, v := range opts.InitState {
			ps.SetStateWord(i, logic.WordAll(v))
		}

		detected := uint64(0) // fault-free lane bit of every detected pair
		ran := 0
		for cyc := 0; cyc < longest; cyc++ {
			if cyc%cancelStride == cancelStride-1 && ctx != nil && ctx.Err() != nil {
				break
			}
			// live holds the pairs whose sequence covers this cycle;
			// the others are driven X and never read.
			live := uint64(0)
			clear(st.piW)
			for k, tr := range b {
				if cyc >= len(tr.Seq) {
					continue
				}
				pair := uint64(3) << uint(2*k)
				live |= pair & evenLanes
				for i, v := range tr.Seq[cyc] {
					switch v {
					case logic.One:
						st.piW[i].Ones |= pair
					case logic.Zero:
						st.piW[i].Zeros |= pair
					}
				}
			}
			if live&^detected == 0 {
				earlyCtr.Inc()
				break
			}
			st.poW = ps.Cycle(st.piW, st.poW)
			ran++
			for _, w := range st.poW {
				diff := (w.Ones&(w.Zeros>>1) | w.Zeros&(w.Ones>>1)) & live &^ detected
				detected |= diff
				for ; diff != 0; diff &= diff - 1 {
					ti := batches[bi].Lo + bits.TrailingZeros64(diff)/2
					det[ti] = cyc
					emitDetect(rec, trials[ti].Fault, cyc, worker)
				}
			}
		}
		cycleCtr.Add(int64(ran))
	}
	var err error
	if col.Enabled() {
		err = par.DoPoolCtx(ctx, workers, len(batches), "faultsim.confirm", col, body)
	} else {
		err = par.DoCtx(ctx, workers, len(batches), body)
	}
	if col.Enabled() {
		n := 0
		for _, d := range det {
			if d >= 0 {
				n++
			}
		}
		col.Counter("faultsim.detected").Add(int64(n))
	}
	return det, err
}
