package journal

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsValidSink(t *testing.T) {
	var r *Recorder
	r.Emit(Note("ignored"))
	r.SetObserver(func(Event) { t.Fatal("observer on nil recorder") })
	if r.Enabled() || r.Len() != 0 || r.Dropped() != 0 || r.Capacity() != 0 {
		t.Error("nil recorder reports non-zero state")
	}
	if r.Snapshot() != nil {
		t.Error("nil recorder snapshot not nil")
	}
}

func TestEmitStampsAndOrders(t *testing.T) {
	r := New(16)
	r.Emit(PhaseBegin("screen"))
	r.Emit(PhaseEnd("screen", 5*time.Millisecond))
	ev := r.Snapshot()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if ev[0].Kind != KindPhaseBegin || ev[1].Kind != KindPhaseEnd {
		t.Fatalf("kinds = %v, %v", ev[0].Kind, ev[1].Kind)
	}
	if ev[0].TNS < 0 {
		t.Errorf("begin TNS = %d, want >= 0", ev[0].TNS)
	}
	// End events are stamped at their start: TNS = emit offset - DurNS,
	// which here predates the begin event's emission.
	if ev[1].DurNS != (5 * time.Millisecond).Nanoseconds() {
		t.Errorf("end DurNS = %d", ev[1].DurNS)
	}
	if ev[1].TNS+ev[1].DurNS < ev[0].TNS {
		t.Errorf("end of span (%d) before begin stamp (%d)", ev[1].TNS+ev[1].DurNS, ev[0].TNS)
	}
}

func TestBoundedCapacityCountsDrops(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Emit(Detect(NewFaultKey(i, -1, -1, 0), i))
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	if r.Capacity() != 4 {
		t.Errorf("Capacity = %d, want 4", r.Capacity())
	}
}

// TestNewAllocatesOnDemand: a default recorder that sees a few events
// holds far less than the ~4 MiB a full buffer takes, yet still bounds
// at DefaultCapacity and counts the overflow exactly as before.
func TestNewAllocatesOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := New(0)
	for i := 0; i < 8; i++ {
		r.Emit(Detect(NewFaultKey(i, -1, -1, 0), i))
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("New(0) plus 8 Emits allocated %d bytes, want well under the 4 MiB of a full buffer", got)
	}
	if r.Capacity() != DefaultCapacity || r.Len() != 8 {
		t.Errorf("Capacity = %d, Len = %d; want %d, 8", r.Capacity(), r.Len(), DefaultCapacity)
	}
	for i := 8; i < DefaultCapacity+3; i++ {
		r.Emit(Detect(NewFaultKey(i, -1, -1, 0), i))
	}
	if r.Len() != DefaultCapacity || r.Dropped() != 3 {
		t.Errorf("after overflow Len = %d, Dropped = %d; want %d, 3", r.Len(), r.Dropped(), DefaultCapacity)
	}
}

func TestConcurrentEmit(t *testing.T) {
	r := New(1 << 12)
	var wg sync.WaitGroup
	const workers, per = 8, 400
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(Batch("pool", w, i, per, time.Microsecond))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Len() + int(r.Dropped()); got != workers*per {
		t.Errorf("recorded+dropped = %d, want %d", got, workers*per)
	}
}

func TestObserverSeesEveryEvent(t *testing.T) {
	r := New(2) // smaller than the emission count: observer still sees all
	var n int
	var mu sync.Mutex
	r.SetObserver(func(Event) { mu.Lock(); n++; mu.Unlock() })
	for i := 0; i < 5; i++ {
		r.Emit(Note("x"))
	}
	if n != 5 {
		t.Errorf("observer saw %d events, want 5", n)
	}
	r.SetObserver(nil)
	r.Emit(Note("y"))
	if n != 5 {
		t.Error("detached observer still called")
	}
}

func TestFaultKeyRoundTrip(t *testing.T) {
	cases := []struct {
		signal, gate, pin int
		stuck             uint8
	}{
		{0, -1, -1, 0},           // stem s-a-0 on signal 0
		{17, -1, -1, 1},          // stem s-a-1
		{12345, 678, 3, 1},       // branch fault
		{1 << 23, 1 << 22, 7, 0}, // near the packing bounds
	}
	for _, c := range cases {
		fk := NewFaultKey(c.signal, c.gate, c.pin, c.stuck)
		s, g, p, v := fk.Unpack()
		if s != c.signal || g != c.gate || p != c.pin || v != c.stuck {
			t.Errorf("round trip %+v -> (%d,%d,%d,%d)", c, s, g, p, v)
		}
	}
}

func TestLocChainSegRoundTrip(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {3, 17}, {12, 1 << 20}} {
		chain, seg := UnpackLoc(LocChainSeg(c[0], c[1]))
		if chain != c[0] || seg != c[1] {
			t.Errorf("loc round trip %v -> (%d,%d)", c, chain, seg)
		}
	}
}
