// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue with stable FIFO ordering for
// simultaneous events, cancellable timers, and a seedable random-number
// source. It is the substrate on which the network and TCP models run,
// playing the role ns-2's scheduler plays in the paper's evaluation.
//
// The event queue is a pair of index-based 4-ary min-heaps, one per
// timer class, over an arena of timer slots: arming, firing, and
// stopping timers allocate nothing in steady state, and a stop is
// O(log n) via the slot's tracked heap position. The scheduling surface
// is the reusable-timer API (Scheduler.NewTimer plus Timer.At/Reset/
// Stop, mirroring time.Timer).
package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"time"
)

// Process-wide simulator totals, aggregated across every scheduler in
// the process so a live introspection scrape can watch a parallel
// sweep's aggregate event and packet rates. Schedulers batch their
// event and packet counts (one atomic add each per globalFlushEvery
// events, plus one at the end of each Run), so the hot loop pays a
// counter increment and a mask test per event, and parallel sweep
// workers do not contend on the shared cache line. The counters are
// observability-only: nothing in the simulation reads them, so they
// cannot perturb determinism.
var (
	globalEvents  atomic.Uint64
	globalPackets atomic.Uint64
)

// globalFlushEvery is the event-count batching interval (power of two).
const globalFlushEvery = 4096

// GlobalCounters reports the process-wide totals: discrete events
// processed and packets transmitted across every scheduler so far.
func GlobalCounters() (events, packets uint64) {
	return globalEvents.Load(), globalPackets.Load()
}

// Time is a simulated instant, measured as an offset from the start of
// the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// ErrScheduleInPast is returned when an event is scheduled before the
// current simulated time.
var ErrScheduleInPast = errors.New("sim: event scheduled in the past")

// heapEntry is one pending event in the priority queue. Entries are
// pure values (no pointers), so sift operations move them without
// write barriers; idx names the arena slot holding the handler.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// Timer classes. Each class keeps its own heap, and run pops the
// smaller (time, seq) of the class tops, so the merged firing order is
// exactly that of one heap over every entry. The deadline class holds
// timers that sit far ahead of the clock and are pushed back on most
// arms (TCP retransmission timers, one per flow): kept apart, they no
// longer lie in the sift path of every near-term event.
const (
	classDefault uint8 = iota
	classDeadline
	numClasses
)

// timerSlot is one arena cell, owned by one Timer for the scheduler's
// lifetime: the handler is written once at NewTimer, so arming and
// firing touch only pointer-free fields (no write barriers on the hot
// path).
type timerSlot struct {
	fn      func()
	at      Time
	heapPos int32 // position in its class heap, -1 when not pending
	class   uint8
}

// Scheduler owns the virtual clock and the pending event set. The zero
// value is not usable; construct one with NewScheduler.
type Scheduler struct {
	now     Time
	nextSeq uint64
	stopped bool
	seed    int64
	rng     *rand.Rand

	// Event queue: one 4-ary min-heap of value entries ordered by
	// (time, sequence) per timer class, over an arena of timer slots.
	heaps     [numClasses][]heapEntry
	slots     []timerSlot
	highWater int

	// Processed counts events that have fired, for diagnostics.
	processed uint64
	// packets counts transmitted packets not yet added to the
	// process-wide total; run flushes it with the event batch.
	packets uint64

	// Profiling hook, fired every profEvery processed events.
	profEvery uint64
	profHook  func(now Time, processed uint64, pending int)

	// Guard hook, consulted after every processed event; a non-nil
	// return stops the run and is retained as guardErr.
	guard    func(now Time, processed uint64, pending int) error
	guardErr error
}

// NewScheduler returns a scheduler whose clock reads zero and whose
// random source is seeded with the given seed. All randomness used by a
// simulation must flow through Rand so that runs are reproducible.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Seed reports the seed the scheduler was constructed with.
func (s *Scheduler) Seed() int64 { return s.seed }

// Rand exposes the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// DeriveRand returns an independent deterministic random source keyed
// by the scheduler's seed and the given tag. Consumers with their own
// randomness (fault injectors, chaos schedules) draw from a derived
// stream so their draws neither perturb nor depend on the shared Rand
// sequence: adding a fault plan to a scenario leaves every other random
// decision in the run unchanged.
func (s *Scheduler) DeriveRand(tag string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(s.seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(tag))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Pending reports the number of events waiting to fire, across every
// timer class.
func (s *Scheduler) Pending() int {
	return len(s.heaps[classDefault]) + len(s.heaps[classDeadline])
}

// Processed reports the number of events that have fired so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// HeapHighWater reports the most events that have been pending at once
// (summed across timer classes) over the scheduler's lifetime — the
// working-set figure the headline benchmarks publish alongside
// throughput.
func (s *Scheduler) HeapHighWater() int { return s.highWater }

// CountPacket records one transmitted packet in the process-wide packet
// total. The count is held on the scheduler and flushed with the event
// batch, so it reaches GlobalCounters by the time Run returns.
func (s *Scheduler) CountPacket() { s.packets++ }

// ReserveSeq takes the next event sequence number without arming
// anything. A source that learns an event's time now but arms its
// timer later (a link's delay line, whose single delivery timer serves
// packets in arrival order) reserves the key at the moment a timer of
// its own would have been armed and hands it to Timer.AtSeq, so ties
// break exactly as if every event had had its own timer.
func (s *Scheduler) ReserveSeq() uint64 {
	seq := s.nextSeq
	s.nextSeq++
	return seq
}

// SetProfileHook installs fn to be called every `every` processed
// events with the current time, the total processed count, and the
// heap depth — the scheduler-side feed for telemetry profiling. A nil
// fn or zero interval removes the hook. The hook runs synchronously on
// the simulation goroutine and must not schedule or cancel events.
func (s *Scheduler) SetProfileHook(every uint64, fn func(now Time, processed uint64, pending int)) {
	if fn == nil || every == 0 {
		s.profEvery, s.profHook = 0, nil
		return
	}
	s.profEvery, s.profHook = every, fn
}

// SetGuard installs fn to be consulted after every processed event with
// the current time, the total processed count, and the heap depth — the
// scheduler side of the overload guard (internal/guard). When fn
// returns a non-nil error the run stops after the in-flight event and
// the error is retained for GuardErr. A nil fn removes the hook; with
// no guard installed the loop pays a single nil check per event, so a
// guarded-but-untripped run processes the exact same event sequence as
// an unguarded one. Like the profiling hook, fn runs synchronously on
// the simulation goroutine and must not schedule or cancel events.
func (s *Scheduler) SetGuard(fn func(now Time, processed uint64, pending int) error) {
	s.guard = fn
}

// GuardErr reports the error that stopped the last run via the guard
// hook, or nil. It stays set across subsequent Run calls so callers can
// inspect it after a multi-phase simulation.
func (s *Scheduler) GuardErr() error { return s.guardErr }

// ---- heap + arena internals -------------------------------------------------

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp and siftDown reorder h, one class's heap, in place; they never
// change its length.
func (s *Scheduler) siftUp(h []heapEntry, i int) {
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		s.slots[h[i].idx].heapPos = int32(i)
		i = p
	}
	h[i] = e
	s.slots[e.idx].heapPos = int32(i)
}

func (s *Scheduler) siftDown(h []heapEntry, i int) {
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if entryLess(h[c], h[best]) {
				best = c
			}
		}
		if !entryLess(h[best], e) {
			break
		}
		h[i] = h[best]
		s.slots[h[i].idx].heapPos = int32(i)
		i = best
	}
	h[i] = e
	s.slots[e.idx].heapPos = int32(i)
}

func (s *Scheduler) heapPush(c uint8, e heapEntry) {
	hp := &s.heaps[c]
	*hp = append(*hp, e)
	s.siftUp(*hp, len(*hp)-1)
	if n := s.Pending(); n > s.highWater {
		s.highWater = n
	}
}

// heapPop removes and returns the minimum entry of the class heap at
// hp. The caller marks the entry's slot idle.
func (s *Scheduler) heapPop(hp *[]heapEntry) heapEntry {
	h := *hp
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*hp = h
	if n > 0 {
		s.slots[h[0].idx].heapPos = 0
		s.siftDown(h, 0)
	}
	return top
}

// heapRemove deletes the entry at position pos of class c (a stop).
func (s *Scheduler) heapRemove(c uint8, pos int) {
	h := s.heaps[c]
	n := len(h) - 1
	moved := h[n]
	h = h[:n]
	s.heaps[c] = h
	if pos == n {
		return
	}
	h[pos] = moved
	s.slots[moved.idx].heapPos = int32(pos)
	s.siftDown(h, pos)
	if h[pos].idx == moved.idx {
		s.siftUp(h, pos)
	}
}

// newSlot appends a timer slot running fn in the given class.
func (s *Scheduler) newSlot(fn func(), class uint8) int32 {
	s.slots = append(s.slots, timerSlot{fn: fn, heapPos: -1, class: class})
	return int32(len(s.slots) - 1)
}

// errPast reports an arm at t before the current instant.
func (s *Scheduler) errPast(t Time) error {
	return fmt.Errorf("%w: at=%v now=%v", ErrScheduleInPast, t, s.now)
}

// armSlotSeq enqueues slot i's handler under the key (t, seq); the
// caller has checked that t is not in the past. A slot that is already
// pending is re-keyed in place — one sift instead of a remove-then-push
// — which is safe for determinism because heap pop order depends only
// on the (time, seq) keys of the live entries, never on how they got
// there.
func (s *Scheduler) armSlotSeq(i int32, t Time, seq uint64) {
	sl := &s.slots[i]
	sl.at = t
	e := heapEntry{at: t, seq: seq, idx: i}
	if pos := sl.heapPos; pos >= 0 {
		h := s.heaps[sl.class]
		old := h[pos]
		h[pos] = e
		if entryLess(e, old) {
			s.siftUp(h, int(pos))
		} else {
			s.siftDown(h, int(pos))
		}
		return
	}
	s.heapPush(sl.class, e)
}

// Stop makes the current Run call return after the in-flight event.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events in order until the queue empties, Stop is called,
// or the next event lies strictly beyond until. Unless stopped early,
// the clock is left at until.
func (s *Scheduler) Run(until Time) {
	s.run(until, true)
}

// RunAll executes events until the queue is empty or Stop is called,
// leaving the clock at the last fired event.
func (s *Scheduler) RunAll() {
	s.run(1<<63-1, false)
}

func (s *Scheduler) run(until Time, advanceClock bool) {
	s.stopped = false
	var batch uint64 // events since the last global-counter flush
	defer func() {
		if batch > 0 || s.packets > 0 {
			s.flushCounters(batch)
		}
	}()
	for !s.stopped {
		hp := &s.heaps[classDefault]
		if d := &s.heaps[classDeadline]; len(*d) > 0 && (len(*hp) == 0 || entryLess((*d)[0], (*hp)[0])) {
			hp = d
		}
		if len(*hp) == 0 {
			break
		}
		if (*hp)[0].at > until {
			s.now = until
			return
		}
		top := s.heapPop(hp)
		sl := &s.slots[top.idx]
		s.now = top.at
		// Mark the slot idle so the handler can re-arm its timer.
		sl.heapPos = -1
		s.processed++
		if batch++; batch == globalFlushEvery {
			s.flushCounters(batch)
			batch = 0
		}
		sl.fn()
		if s.profHook != nil && s.processed%s.profEvery == 0 {
			s.profHook(s.now, s.processed, s.Pending())
		}
		if s.guard != nil {
			if err := s.guard(s.now, s.processed, s.Pending()); err != nil {
				s.guardErr = err
				s.stopped = true
			}
		}
	}
	if !s.stopped && advanceClock && s.now < until {
		s.now = until
	}
}

// flushCounters adds a batch of processed events and the packets
// counted since the last flush to the process-wide totals.
func (s *Scheduler) flushCounters(events uint64) {
	globalEvents.Add(events)
	if s.packets > 0 {
		globalPackets.Add(s.packets)
		s.packets = 0
	}
}

// ---- reusable timers --------------------------------------------------------

// Timer is a restartable one-shot timer bound to a scheduler — the
// building block for TCP retransmission timers and every other
// recurring event source. A Timer is created once with its handler and
// re-armed any number of times; arming allocates nothing, because the
// pending event lives in the timer's own scheduler arena slot. Timers mirror
// time.Timer: At/Reset arm, Stop disarms, and an expired timer simply
// reads as not Armed until re-armed (the handler does not need to touch
// the timer).
type Timer struct {
	s    *Scheduler
	slot int32
}

// NewTimer returns a stopped timer that runs fn when it expires. The
// timer owns its arena slot for the scheduler's lifetime, so create
// timers per long-lived event source (or pool them), not per arm.
func (s *Scheduler) NewTimer(fn func()) *Timer {
	return &Timer{s: s, slot: s.newSlot(fn, classDefault)}
}

// NewDeadlineTimer is NewTimer for a deadline: a timer that normally
// sits far ahead of the clock and is pushed back before it fires, like
// a TCP retransmission timer re-armed on every ACK. It fires exactly as
// a NewTimer timer would; it only lives in a separate heap, so
// re-keying it never sifts through near-term events and near-term
// events never sift through it.
func (s *Scheduler) NewDeadlineTimer(fn func()) *Timer {
	return &Timer{s: s, slot: s.newSlot(fn, classDeadline)}
}

// At arms the timer to fire at the absolute instant at, replacing any
// pending expiry. Arming before the current simulated time returns
// ErrScheduleInPast and leaves the timer stopped.
func (t *Timer) At(at Time) error {
	if at < t.s.now {
		t.Stop()
		return t.s.errPast(at)
	}
	t.s.armSlotSeq(t.slot, at, t.s.ReserveSeq())
	return nil
}

// AtSeq arms the timer like At, but under a sequence number taken
// earlier with Scheduler.ReserveSeq instead of a fresh one, so the
// event breaks ties with simultaneous events as if it had been armed
// when the number was reserved. Each reserved number may key at most
// one pending event.
func (t *Timer) AtSeq(at Time, seq uint64) error {
	if at < t.s.now {
		t.Stop()
		return t.s.errPast(at)
	}
	t.s.armSlotSeq(t.slot, at, seq)
	return nil
}

// Reset (re)arms the timer to fire after d, replacing any pending
// expiry. A negative d is clamped to zero.
func (t *Timer) Reset(d Time) {
	if d < 0 {
		d = 0
	}
	t.At(t.s.now + d) //nolint:errcheck // now+d with d >= 0 is never in the past
}

// Stop disarms the timer if it is pending. Stopping an expired or
// already-stopped timer is a no-op.
func (t *Timer) Stop() {
	sl := &t.s.slots[t.slot]
	if sl.heapPos < 0 {
		return
	}
	t.s.heapRemove(sl.class, int(sl.heapPos))
	sl.heapPos = -1
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool {
	return t.s.slots[t.slot].heapPos >= 0
}

// ExpiresAt reports when the timer will fire; valid only when Armed.
func (t *Timer) ExpiresAt() Time {
	if !t.Armed() {
		return 0
	}
	return t.s.slots[t.slot].at
}
