package core

// Flight-recorder plumbing shared by the flow phases: the fault
// identity packing and the per-attempt ATPG span helper. The journal
// rides on the obs.Collector already threaded through every phase
// (Params.Obs / Options.Obs), so no phase signature changes to carry
// it.

import (
	"time"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/journal"
)

// journalKey packs a fault into the journal's process-wide identity so
// flight-recorder events can be matched back to fault list entries.
func journalKey(f fault.Fault) journal.FaultKey {
	return journal.NewFaultKey(int(f.Signal), int(f.Gate), f.Pin, uint8(f.Stuck))
}

// noteATPG is the no-op returned by timeATPG when no recorder is
// attached, shared so the disabled path allocates nothing.
var noteATPG = func(atpg.Status, int) {}

// timeATPG starts timing one ATPG attempt against the original
// (pre-model-mapping) fault f on the flow thread; call the returned
// func with the attempt's outcome to emit the journal span. With no
// recorder attached it returns a shared no-op without reading the
// clock.
func timeATPG(rec *journal.Recorder, prefix string, f fault.Fault) func(status atpg.Status, backtracks int) {
	return timeATPGOn(rec, prefix, f, -1)
}

// timeATPGOn is timeATPG for an attempt fanned out to a worker pool:
// the span carries its worker (worker < 0 means the flow thread).
func timeATPGOn(rec *journal.Recorder, prefix string, f fault.Fault, worker int) func(status atpg.Status, backtracks int) {
	if !rec.Enabled() {
		return noteATPG
	}
	t0 := time.Now()
	return func(status atpg.Status, backtracks int) {
		ev := journal.ATPG(prefix, journalKey(f), int(status), backtracks, time.Since(t0))
		if worker >= 0 {
			ev = ev.OnWorker(worker)
		}
		rec.Emit(ev)
	}
}
