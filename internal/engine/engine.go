// Package engine provides the discrete-event simulation core used by the
// MCM-GPU model: a simulated clock, an event queue, and bandwidth-limited
// resources that model shared components (DRAM partitions, on-package links,
// crossbars, SM issue slots) via next-free-time reservation.
//
// The engine is deliberately small and deterministic: events scheduled for
// the same cycle fire in scheduling order, so a simulation with a fixed
// configuration and seed always produces identical results.
//
// There is one scheduling form: AtEvent/AfterEvent dispatch to a long-lived
// receiver implementing Event with a small kind tag, so hot paths that fire
// millions of events schedule without allocating anything per event; see
// core's pooled warp/load/store contexts. Events fire in (at, seq) order:
// earlier cycle first, and within a cycle, scheduling order.
package engine

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in GPU core cycles.
// The model clocks the GPU at 1 GHz (Table 3 of the paper), so one cycle is
// one nanosecond; bandwidths expressed in GB/s translate directly to
// bytes per cycle.
type Cycle uint64

// Event is the receiver side of the scheduling API. A receiver with more
// than one schedulable action distinguishes them by the kind tag
// it passed to AtEvent/AfterEvent. Implementations are typically pooled,
// long-lived objects, which is what makes this form allocation-free: an
// interface value holding an existing pointer does not allocate.
type Event interface {
	Dispatch(kind uint8)
}

// ringSize is the span of the calendar ring in cycles: an event due fewer
// than ringSize cycles ahead goes straight into the bucket of its cycle, a
// later one into the overflow heap. Every full-size dense cell schedules all
// of its events under 1024 cycles ahead, and a suite pass sends 0.2% of its
// pushes to the overflow heap (DESIGN.md, Event engine internals). It must
// be a power of two.
const (
	ringSize  = 1024
	ringMask  = ringSize - 1
	ringWords = ringSize / 64
)

// node is one ring entry in the slab: the receiver, its kind tag, and the
// slab index of the next node in the same bucket (or on the free list).
// Index 0 ends a list; slab[0] is a sentinel that never holds an event.
type node struct {
	ev   Event
	next int32
	kind uint8
}

// event is one overflow-heap entry: an event due ringSize or more cycles
// after the cycle it was scheduled at.
type event struct {
	at   Cycle
	seq  uint64
	ev   Event
	kind uint8
}

// before reports whether e fires ahead of o: earlier cycle first, and within
// a cycle, scheduling order (seq). This is a strict total order, so the
// overflow heap pops in exactly one sequence.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New.
//
// The queue is a calendar ring of ringSize per-cycle FIFO buckets plus an
// overflow heap. At any moment the ring holds exactly the queued events due
// in [now, now+ringSize), so each bucket holds the events of one cycle, and
// the overflow heap holds the later ones. Bucket b's events are a linked
// list of slab nodes from head[b] to tail[b]; dispatched nodes go back on a
// free list, so at steady state scheduling allocates nothing.
type Sim struct {
	now     Cycle
	nRun    uint64
	clamped uint64

	slab     []node
	free     int32 // first node of the free list, 0 when empty
	inRing   int
	head     [ringSize]int32
	tail     [ringSize]int32
	occupied [ringWords]uint64 // bit b set exactly when bucket b is non-empty

	// overflow is a 4-ary min-heap over (at, seq). Only its entries need
	// a sequence number: see advance for why buckets keep scheduling order
	// without one.
	overflow []event
	seq      uint64

	// Periodic stop-check state (see SetCheck). check == nil is the common
	// case and costs one predictable branch per event in Run/RunUntil.
	check      func() error
	checkEvery uint64
	sinceCheck uint64
	stopErr    error

	// Periodic audit state (see SetAudit): a second hook with its own
	// interval, independent of the budget check so auditing can run at a
	// coarser cadence than budget enforcement (invariant sweeps walk cache
	// arrays; budget checks are a few integer compares).
	audit      func() error
	auditEvery uint64
	sinceAudit uint64

	// Periodic sample state (see SetSample): a third hook for the metrics
	// sampler. Unlike check and audit it cannot stop the loop — sampling is
	// strictly observational — so it has no error return.
	sample      func()
	sampleEvery uint64
	sinceSample uint64
}

// New returns an empty simulator positioned at cycle 0.
func New() *Sim {
	return &Sim{slab: make([]node, 1, 256)}
}

// Now returns the current simulated time.
func (s *Sim) Now() Cycle { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.nRun }

// Pending returns the number of events waiting in the queue.
func (s *Sim) Pending() int { return s.inRing + len(s.overflow) }

// Clamped returns the number of events that were scheduled in the past and
// clamped to the current time. A handful per run is expected floating-point
// slop in callers; a count that grows with the event count indicates a
// causality bug upstream that the clamp would otherwise hide.
func (s *Sim) Clamped() uint64 { return s.clamped }

// clamp maps a past timestamp to now (counting it) so the simulation keeps
// making forward progress; see Clamped.
func (s *Sim) clamp(t Cycle) Cycle {
	if t < s.now {
		s.clamped++
		return s.now
	}
	return t
}

// AtEvent schedules ev.Dispatch(kind) at absolute time t. Scheduling in the
// past is an error in the caller; the engine clamps it to the current time
// (counted by Clamped) so the simulation still makes forward progress, which
// keeps small floating-point slop in callers from wedging a run. The queue
// stores the receiver and tag inline, so scheduling allocates nothing.
func (s *Sim) AtEvent(t Cycle, ev Event, kind uint8) {
	t = s.clamp(t)
	if t-s.now >= ringSize {
		s.seq++
		s.pushOverflow(event{at: t, seq: s.seq, ev: ev, kind: kind})
		return
	}
	s.enqueue(t, ev, kind)
}

// AfterEvent schedules ev.Dispatch(kind) delay cycles from now.
func (s *Sim) AfterEvent(delay Cycle, ev Event, kind uint8) {
	s.AtEvent(s.now+delay, ev, kind)
}

// enqueue appends an event due at t, which must lie in [now, now+ringSize),
// to the tail of t's bucket.
func (s *Sim) enqueue(t Cycle, ev Event, kind uint8) {
	i := s.free
	if i != 0 {
		s.free = s.slab[i].next
		s.slab[i] = node{ev: ev, kind: kind}
	} else {
		i = int32(len(s.slab))
		s.slab = append(s.slab, node{ev: ev, kind: kind})
	}
	b := uint(t) & ringMask
	if s.head[b] == 0 {
		s.head[b] = i
		s.occupied[b>>6] |= 1 << (b & 63)
	} else {
		s.slab[s.tail[b]].next = i
	}
	s.tail[b] = i
	s.inRing++
}

// advance moves the clock forward to t, which must not pass any queued
// event, and then moves every overflow event now due before t+ringSize into
// its bucket, before anything can be scheduled at t. That keeps each bucket
// in scheduling order: an overflow event for cycle c was scheduled while
// now <= c-ringSize, and a ring insert for c happens only once now >
// c-ringSize, so every overflow insert for c precedes every ring insert for
// c; the heap hands the overflow events over in (at, seq) order, and the
// bucket is empty when they arrive.
func (s *Sim) advance(t Cycle) {
	s.now = t
	for len(s.overflow) > 0 && s.overflow[0].at-t < ringSize {
		e := s.popOverflow()
		s.enqueue(e.at, e.ev, e.kind)
	}
}

// next returns the cycle of the earliest queued event. Ring events are all
// due before any overflow event, so the ring's first occupied bucket at or
// after now's, when there is one, is the answer.
func (s *Sim) next() (Cycle, bool) {
	if s.inRing > 0 {
		return s.now + s.ringDelay(), true
	}
	if len(s.overflow) > 0 {
		return s.overflow[0].at, true
	}
	return 0, false
}

// ringDelay returns the distance in cycles from now to the first occupied
// bucket, scanning the occupancy bitmap cyclically from now's bucket. The
// ring must not be empty.
func (s *Sim) ringDelay() Cycle {
	b := uint(s.now) & ringMask
	w, off := b>>6, b&63
	if word := s.occupied[w] >> off; word != 0 {
		return Cycle(bits.TrailingZeros64(word))
	}
	d := 64 - off
	for k := uint(1); k <= ringWords; k++ {
		if word := s.occupied[(w+k)%ringWords]; word != 0 {
			return Cycle(d + uint(bits.TrailingZeros64(word)))
		}
		d += 64
	}
	panic("engine: ring count and occupancy bitmap disagree")
}

// pushOverflow inserts e into the overflow heap, sifting up with the hole
// technique: parents shift down into the hole and e is written once at its
// final slot.
func (s *Sim) pushOverflow(e event) {
	h := append(s.overflow, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.overflow = h
}

// popOverflow removes and returns the earliest overflow event, sifting the
// displaced tail element down from the root.
func (s *Sim) popOverflow() event {
	h := s.overflow
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = event{} // release the vacated slot's receiver reference
	h = h[:n]
	s.overflow = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			// Smallest of up to four children.
			m := c
			hi := c + 4
			if hi > n {
				hi = n
			}
			for j := c + 1; j < hi; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&e) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = e
	}
	return top
}

// Step executes the earliest pending event and reports whether one existed.
func (s *Sim) Step() bool {
	b := uint(s.now) & ringMask
	if s.head[b] == 0 {
		// Nothing left at the current cycle: move the clock to the next
		// event's cycle.
		t, ok := s.next()
		if !ok {
			return false
		}
		s.advance(t)
		b = uint(t) & ringMask
	}
	i := s.head[b]
	n := &s.slab[i]
	ev, kind := n.ev, n.kind
	if s.head[b] = n.next; n.next == 0 {
		s.occupied[b>>6] &^= 1 << (b & 63)
	}
	*n = node{next: s.free} // release the receiver reference
	s.free = i
	s.inRing--
	s.nRun++
	ev.Dispatch(kind)
	return true
}

// SetCheck installs fn to be consulted every interval dispatched events
// during Run and RunUntil. A non-nil return from fn stops the loop; the error
// is retrievable through StopErr until the next Run/RunUntil call. fn must
// not mutate simulation state — it may only observe (Now, Processed, Pending)
// and decide — which is what keeps a run with an installed-but-untripped
// check byte-identical to an unchecked run. Passing fn == nil or
// interval == 0 removes the check, restoring the unchecked fast path.
func (s *Sim) SetCheck(interval uint64, fn func() error) {
	if interval == 0 {
		fn = nil
	}
	s.check = fn
	s.checkEvery = interval
	s.sinceCheck = 0
	s.stopErr = nil
}

// SetAudit installs fn as a second periodic hook, consulted every interval
// dispatched events alongside (and after) the SetCheck hook. It obeys the
// same contract: fn must only observe, a non-nil return stops the loop and
// is retrievable through StopErr, and fn == nil or interval == 0 removes the
// hook. The two hooks are independent so the invariant auditor can sweep at
// a coarser cadence than the budget check without either perturbing the
// other's interval arithmetic.
func (s *Sim) SetAudit(interval uint64, fn func() error) {
	if interval == 0 {
		fn = nil
	}
	s.audit = fn
	s.auditEvery = interval
	s.sinceAudit = 0
	s.stopErr = nil
}

// SetSample installs fn as a third periodic hook, invoked every interval
// dispatched events after the SetCheck and SetAudit hooks. It is the
// engine-side attachment point for the metrics sampler: fn must only observe
// (it has no way to stop the loop and no error return), which is what keeps
// a sampled run byte-identical to an unsampled one. Passing fn == nil or
// interval == 0 removes the hook.
func (s *Sim) SetSample(interval uint64, fn func()) {
	if interval == 0 {
		fn = nil
	}
	s.sample = fn
	s.sampleEvery = interval
	s.sinceSample = 0
}

// StopErr returns the error with which an installed hook (SetCheck or
// SetAudit) stopped the most recent Run/RunUntil call, or nil if the queue
// drained (or the limit was reached) normally.
func (s *Sim) StopErr() error { return s.stopErr }

// hooked reports whether any periodic hook is installed.
func (s *Sim) hooked() bool { return s.check != nil || s.audit != nil || s.sample != nil }

// tick advances the periodic hook state by one dispatched event and reports
// whether the loop must stop. Callers only invoke it when a hook is
// installed. The budget check runs before the audit so a run that is both
// over budget and inconsistent reports the budget trip (the established
// failure mode) rather than whichever invariant the corruption reached
// first.
func (s *Sim) tick() bool {
	if s.check != nil {
		s.sinceCheck++
		if s.sinceCheck >= s.checkEvery {
			s.sinceCheck = 0
			if err := s.check(); err != nil {
				s.stopErr = err
				return true
			}
		}
	}
	if s.audit != nil {
		s.sinceAudit++
		if s.sinceAudit >= s.auditEvery {
			s.sinceAudit = 0
			if err := s.audit(); err != nil {
				s.stopErr = err
				return true
			}
		}
	}
	if s.sample != nil {
		s.sinceSample++
		if s.sinceSample >= s.sampleEvery {
			s.sinceSample = 0
			s.sample()
		}
	}
	return false
}

// Run executes events until the queue drains and returns the number of
// events processed by this call. If an installed hook (SetCheck/SetAudit)
// stops the loop, the queue is left intact and StopErr reports why.
func (s *Sim) Run() uint64 {
	start := s.nRun
	if !s.hooked() {
		for s.Step() {
		}
		return s.nRun - start
	}
	s.stopErr = nil
	for s.Step() {
		if s.tick() {
			break
		}
	}
	return s.nRun - start
}

// RunUntil executes events with timestamps <= limit and then advances the
// clock to limit. It returns the number of events processed by this call.
// Events beyond the limit remain queued, and later scheduling is relative
// to limit. Installed hooks (SetCheck/SetAudit) are honored exactly as in
// Run; a hook that stops the loop leaves the clock at the last event.
func (s *Sim) RunUntil(limit Cycle) uint64 {
	start := s.nRun
	hooked := s.hooked()
	if hooked {
		s.stopErr = nil
	}
	for {
		if t, ok := s.next(); !ok || t > limit {
			break
		}
		s.Step()
		if hooked && s.tick() {
			return s.nRun - start
		}
	}
	if s.now < limit {
		s.advance(limit)
	}
	return s.nRun - start
}

// Resource models a component with finite throughput using next-free-time
// reservation: a transfer of n units occupies the resource for n*cyclesPer
// cycles starting no earlier than the later of the request time and the end
// of the previous reservation. Queuing delay under contention and bandwidth
// saturation both emerge from this rule.
//
// Resources are not safe for concurrent use; the simulation is single
// threaded by design.
type Resource struct {
	name      string
	cyclesPer float64 // cycles consumed per unit transferred
	nextFree  float64
	busy      float64 // total occupied cycles
	units     uint64  // total units transferred
	resv      uint64  // number of reservations

	// Interval-utilization settlement state (see BusyThrough). Reserve
	// credits the full transfer duration to busy at reservation time, so on
	// a saturated resource busy runs ahead of the clock with nextFree;
	// dividing it by elapsed cycles mid-run used to report utilizations
	// far above 1. BusyThrough clips occupancy to an advancing watermark
	// instead: done is the busy time credited through mark, and tailLo is
	// where the not-yet-settled occupancy span begins. busy itself is
	// untouched, so end-of-run totals are exactly what they always were.
	done   float64 // busy cycles settled at or before mark
	mark   float64 // settlement watermark (monotone)
	tailLo float64 // start of the unsettled occupancy span
}

// NewResource creates a resource named name with the given throughput in
// units per cycle. A DRAM partition delivering 768 GB/s at 1 GHz is
// NewResource("dram0", 768) with bytes as the unit. unitsPerCycle must be
// positive.
func NewResource(name string, unitsPerCycle float64) *Resource {
	if unitsPerCycle <= 0 {
		panic(fmt.Sprintf("engine: resource %q: non-positive throughput %v", name, unitsPerCycle))
	}
	return &Resource{name: name, cyclesPer: 1 / unitsPerCycle}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// window computes a prospective reservation's timing on the resource's
// fractional timeline: transfers start at the later of the request time and
// the end of the previous reservation, occupy dur cycles, and finish at
// end = start + dur. It is shared by Reserve and Delay so the two can never
// disagree on timing. dur is returned separately (rather than recovered as
// end-start) because busy-cycle accounting sums exact durations; the
// subtraction would reintroduce rounding error at large timestamps.
func (r *Resource) window(now Cycle, units uint64) (start, dur, end float64) {
	start = float64(now)
	if r.nextFree > start {
		start = r.nextFree
	}
	dur = float64(units) * r.cyclesPer
	return start, dur, start + dur
}

// toCycle discretizes a fractional completion time onto the cycle grid.
// Resource timelines accumulate in float64 so fractional occupancies from
// non-power-of-two bandwidths don't drift; the +0.5 rounds the published
// completion to the nearest cycle. This is the single place that rounding
// contract lives — every externally visible completion time funnels through
// it, which is what keeps Reserve and Delay mutually consistent.
func toCycle(t float64) Cycle { return Cycle(t + 0.5) }

// Reserve books units of transfer beginning no earlier than now and returns
// the cycle at which the transfer completes. The resource is busy from
// max(now, previous completion) until the returned time.
func (r *Resource) Reserve(now Cycle, units uint64) Cycle {
	start, dur, end := r.window(now, units)
	if r.busy == r.done {
		// No unsettled occupancy: this reservation begins a fresh span.
		// Occupancy already settled through mark must not be re-counted,
		// so the span cannot start before the watermark.
		r.tailLo = start
		if r.tailLo < r.mark {
			r.tailLo = r.mark
		}
	}
	r.nextFree = end
	r.busy += dur
	r.units += units
	r.resv++
	return toCycle(end)
}

// Delay returns how long a reservation of units would wait plus transfer
// time if issued at now, without reserving.
func (r *Resource) Delay(now Cycle, units uint64) Cycle {
	_, _, end := r.window(now, units)
	return toCycle(end) - now
}

// Units returns the total units transferred through the resource.
func (r *Resource) Units() uint64 { return r.units }

// Reservations returns the number of reservations made.
func (r *Resource) Reservations() uint64 { return r.resv }

// BusyCycles returns the total cycles the resource has been occupied,
// including occupancy booked beyond the current simulated time. For a
// time-clipped view use BusyThrough.
func (r *Resource) BusyCycles() float64 { return r.busy }

// BusyThrough returns the busy cycles the resource accumulated at or before
// now, advancing the settlement watermark to now. This is the quantity
// interval utilization must be computed from: Reserve credits a transfer's
// full duration to BusyCycles immediately, so on a saturated resource the
// raw total runs arbitrarily far ahead of the clock.
//
// Settlement is exact whenever now has reached the end of all booked
// occupancy (the rounding contract of toCycle decides "reached", so a
// drained run settles to exactly BusyCycles). Mid-span, occupancy is
// credited pro-rata over the unsettled span [tailLo, nextFree): exact for a
// saturated resource (the span is fully busy — the case the clipping
// exists for) and an approximation when the span has internal idle gaps.
// The approximation preserves the three properties samplers rely on:
// BusyThrough never exceeds now, it is monotone for monotone queries, and
// successive deltas never exceed the elapsed cycles between them and sum to
// BusyCycles once the resource drains.
//
// Queries before the current watermark return the settled value
// unchanged; interval samplers always query with monotone timestamps. A
// query at the watermark still settles a transfer booked there since, if
// that transfer has ended on the cycle grid.
func (r *Resource) BusyThrough(now Cycle) float64 {
	t := float64(now)
	if t < r.mark {
		return r.done
	}
	if now >= toCycle(r.nextFree) {
		// All booked occupancy is over (on the published cycle grid):
		// settle everything. Re-basing done on busy here also resyncs any
		// float drift the pro-rata branch accumulated.
		r.done = r.busy
		r.mark = t
		r.tailLo = r.nextFree
		return r.done
	}
	lo := r.tailLo
	if lo < r.mark {
		lo = r.mark
	}
	if t <= lo {
		// The unsettled span starts in the future; nothing new to credit.
		r.mark = t
		return r.done
	}
	pending := r.busy - r.done
	if pending < 0 {
		pending = 0
	}
	credit := pending * (t - lo) / (r.nextFree - lo)
	if credit > pending {
		credit = pending
	}
	r.done += credit
	r.mark = t
	r.tailLo = t
	return r.done
}

// Utilization returns the fraction of elapsed cycles the resource was busy,
// counting only occupancy at or before elapsed (see BusyThrough) — a
// saturated resource sampled mid-run reads ~1.0, never more. It reports 0
// for a zero elapsed interval. For a fully drained run the result is
// identical to BusyCycles()/elapsed.
func (r *Resource) Utilization(elapsed Cycle) float64 {
	if elapsed == 0 {
		return 0
	}
	return r.BusyThrough(elapsed) / float64(elapsed)
}

// Reset clears reservation history but keeps the configured throughput.
func (r *Resource) Reset() {
	r.nextFree = 0
	r.busy = 0
	r.units = 0
	r.resv = 0
	r.done = 0
	r.mark = 0
	r.tailLo = 0
}
