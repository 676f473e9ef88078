package engine

// Microbenchmarks for the event-engine hot path, plus AllocsPerRun
// regression tests pinning the typed-event path at zero steady-state
// allocations. The end-to-end kernel benchmark lives at the repo root
// (BenchmarkSimulatorThroughput); these isolate the engine's own costs.

import (
	"testing"
	"unsafe"
)

// nopEv is the cheapest possible typed event.
type nopEv struct{ n int }

func (e *nopEv) Dispatch(uint8) { e.n++ }

// TestTypedEventScheduleAllocFree pins the allocation-free contract of the
// typed scheduling path: once the slab and the overflow heap have grown to
// their steady-state sizes, AtEvent, Step and RunUntil allocate nothing per
// event, on the ring path, the overflow path and RunUntil's idle jump.
func TestTypedEventScheduleAllocFree(t *testing.T) {
	s := New()
	ev := &nopEv{}
	const batch = 512
	round := func() {
		for i := 0; i < batch; i++ {
			d := Cycle(i % 13)
			if i%8 == 0 {
				d = ringSize + Cycle(i) // overflow heap
			}
			s.AtEvent(s.Now()+d, ev, uint8(i&1))
		}
		// Drain the ring, then jump the idle clock past the point where
		// the overflow events move into the ring.
		s.RunUntil(s.Now() + ringSize/2)
		s.Run()
	}
	round() // warm the slab and the overflow heap to their high-water marks
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Fatalf("typed schedule+run allocated %v objects per batch, want 0", allocs)
	}
}

// TestEventSize pins the queue's entries: a ring node (receiver interface,
// next index and kind tag) is 24 bytes, and an overflow-heap entry, which
// adds the cycle and sequence number, is 40.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 24 {
		t.Fatalf("ring node is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("overflow entry is %d bytes, want 40", got)
	}
}

// TestResourceReserveAllocFree pins Reserve/Delay as allocation-free.
func TestResourceReserveAllocFree(t *testing.T) {
	r := NewResource("x", 16)
	allocs := testing.AllocsPerRun(100, func() {
		r.Delay(0, 64)
		r.Reserve(0, 64)
	})
	if allocs != 0 {
		t.Fatalf("Reserve/Delay allocated %v objects per call pair, want 0", allocs)
	}
}

// benchQueue measures the queue on the push/pop mix the simulator
// produces: a bounded queue with interleaved scheduling while draining.
// One push in every farEvery (0: none) is due ringSize or more cycles
// ahead and takes the overflow path.
func benchQueue(b *testing.B, farEvery int) {
	s := New()
	ev := &nopEv{}
	const window = 1024
	for i := 0; i < window; i++ {
		s.AtEvent(Cycle(i*7%97), ev, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Cycle(i * 31 % 211)
		if farEvery > 0 && i%farEvery == 0 {
			d += ringSize
		}
		s.AtEvent(s.Now()+d, ev, 0)
		s.Step()
	}
}

// BenchmarkQueuePushPop keeps every delay under 211 cycles, inside the
// ring, like the dense cells.
func BenchmarkQueuePushPop(b *testing.B) { benchQueue(b, 0) }

// BenchmarkQueuePushPopOverflow sends one push in eight to the overflow
// heap, far more than the 0.2% a suite pass does, so the cost of the
// overflow path shows.
func BenchmarkQueuePushPopOverflow(b *testing.B) { benchQueue(b, 8) }

// BenchmarkTypedSchedule measures pure AtEvent cost (drained between
// batches so the heap stays at a steady size).
func BenchmarkTypedSchedule(b *testing.B) {
	s := New()
	ev := &nopEv{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AtEvent(s.Now()+Cycle(i&255), ev, 0)
		if i&1023 == 1023 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkResourceReserve measures the next-free-time reservation rule.
func BenchmarkResourceReserve(b *testing.B) {
	r := NewResource("dram", 768)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reserve(Cycle(i), 128)
	}
}
