package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refEntry is one pending event in the reference queue: the same
// (time, sequence) key the arena heap orders by, plus the test's id.
type refEntry struct {
	at  Time
	seq uint64
	id  int
}

// refHeap is a textbook container/heap min-heap over (time, sequence) —
// the implementation the index-based 4-ary heap replaced, kept here as
// the ordering oracle.
type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refTimer pairs a Timer with the reference model's view of it.
type refTimer struct {
	tm     *Timer
	id     int // id of the pending expiry in the model, -1 when none
	firing int // id the handler reports when it fires
}

// TestHeapMatchesReferenceOrder drives random operations through every
// arming path — fresh one-shot timers, Timer.At on timers of both
// classes (in-place re-keys included), Scheduler.ReserveSeq with a
// later Timer.AtSeq, stops, and partial runs that fire events — and
// checks that events fire in exactly
// the (time, sequence) order a reference container/heap implementation
// pops them. This is the determinism contract the experiment goldens
// depend on: splitting timers into per-class heaps and arming at
// reserved keys must not change which event fires next.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	const ops = 3000
	for trial := int64(0); trial < 10; trial++ {
		rng := rand.New(rand.NewSource(trial + 100))
		s := NewScheduler(trial)

		var got, want []int
		var seq uint64 // mirrors the scheduler's internal sequence counter

		// live holds the reference model of pending events.
		live := map[int]refEntry{}
		nextID := 0

		var timers []*refTimer
		owner := map[int]*refTimer{} // timer expiry id -> its timer
		var reserved []uint64        // reserved sequence numbers not yet used
		deadlineFires := 0

		// arm records a new pending expiry of ta under key (at, sq).
		arm := func(ta *refTimer, at Time, sq uint64) {
			if ta.id >= 0 {
				delete(live, ta.id) // re-arm replaces the pending expiry
			}
			id := nextID
			nextID++
			ta.id, ta.firing = id, id
			owner[id] = ta
			live[id] = refEntry{at: at, seq: sq, id: id}
		}
		// Coarse instants make equal times common, so ties are broken by
		// sequence number alone.
		future := func() Time { return s.Now() + Time(rng.Intn(64))*16*time.Microsecond }

		for i := 0; i < ops; i++ {
			switch k := rng.Intn(20); {
			case k < 11: // arm (or re-arm in place) a timer of either class
				// A fresh timer armed once is the one-shot idiom.
				var ta *refTimer
				if len(timers) == 0 || k < 6 || rng.Intn(4) == 0 {
					ta = &refTimer{id: -1}
					fire := func() {
						got = append(got, ta.firing)
						if s.slots[ta.tm.slot].class == classDeadline {
							deadlineFires++
						}
					}
					if rng.Intn(2) == 0 {
						ta.tm = s.NewDeadlineTimer(fire)
					} else {
						ta.tm = s.NewTimer(fire)
					}
					timers = append(timers, ta)
				} else {
					ta = timers[rng.Intn(len(timers))]
				}
				at := future()
				if err := ta.tm.At(at); err != nil {
					t.Fatal(err)
				}
				arm(ta, at, seq)
				seq++
			case k < 14: // reserve a sequence number for a later arm
				reserved = append(reserved, s.ReserveSeq())
				seq++
			case k < 16 && len(reserved) > 0 && len(timers) > 0: // arm at a reserved key
				// Reservations outnumber arms, so old keys pile up;
				// half the arms take the oldest, whose seq lies below
				// most pending entries'.
				j := 0
				if rng.Intn(2) == 0 {
					j = rng.Intn(len(reserved))
				}
				sq := reserved[j]
				reserved = append(reserved[:j], reserved[j+1:]...)
				ta := timers[rng.Intn(len(timers))]
				at := future()
				if ta.id >= 0 && rng.Intn(2) == 0 {
					// Re-key in place at the same instant: only the
					// sequence number moves, possibly backwards.
					at = live[ta.id].at
				}
				if err := ta.tm.AtSeq(at, sq); err != nil {
					t.Fatal(err)
				}
				arm(ta, at, sq)
			case k < 18 && len(timers) > 0: // stop a timer (maybe already fired)
				ta := timers[rng.Intn(len(timers))]
				ta.tm.Stop()
				if ta.id >= 0 {
					delete(live, ta.id)
					ta.id = -1
				}
			case k < 19: // fire everything due in the next 200us
				until := s.Now() + Time(rng.Intn(200))*time.Microsecond
				want = popReference(live, owner, until, want)
				s.Run(until)
			}
			if s.Pending() != len(live) {
				t.Fatalf("trial %d op %d: Pending() = %d, model holds %d", trial, i, s.Pending(), len(live))
			}
		}

		want = popReference(live, owner, 1<<62, want)
		s.RunAll()
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference popped %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire order diverges at %d: got id %d, reference id %d",
					trial, i, got[i], want[i])
			}
		}
		if deadlineFires == 0 {
			t.Fatalf("trial %d: no deadline timer fired", trial)
		}
	}
}

// popReference pops every live entry due at or before until in the
// reference container/heap order, appends their ids to want, and marks
// fired timer expiries as no longer pending.
func popReference(live map[int]refEntry, owner map[int]*refTimer, until Time, want []int) []int {
	ref := make(refHeap, 0, len(live))
	for _, e := range live {
		ref = append(ref, e)
	}
	heap.Init(&ref)
	for ref.Len() > 0 && ref[0].at <= until {
		e := heap.Pop(&ref).(refEntry)
		want = append(want, e.id)
		delete(live, e.id)
		if ta := owner[e.id]; ta != nil && ta.id == e.id {
			ta.id = -1
		}
	}
	return want
}

// TestTimerSteadyStateZeroAlloc asserts the tentpole allocation
// contract: re-arming and firing a Timer allocates nothing once the
// heap and arena are warm.
func TestTimerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler(1)
	var tm *Timer
	fires := 0
	tm = s.NewTimer(func() { fires++ })

	// Warm up: grow the heap and arena to steady-state size.
	tm.Reset(time.Microsecond)
	s.Run(s.Now() + 2*time.Microsecond)

	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 500; i++ {
			tm.Reset(time.Microsecond)
			s.Run(s.Now() + 2*time.Microsecond)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state timer churn allocates %.2f allocs/run, want 0", avg)
	}
	if fires == 0 {
		t.Fatal("timer never fired")
	}
}

// TestRekeyWhileArmedZeroAlloc covers the Reset-while-armed fast path
// (the retransmission-timer pattern): the pending entry is re-keyed in
// place.
func TestRekeyWhileArmedZeroAlloc(t *testing.T) {
	s := NewScheduler(1)
	tm := s.NewTimer(func() {})
	tm.Reset(time.Second)
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 500; i++ {
			tm.Reset(time.Second) // always pending: pure re-key
		}
	})
	if avg != 0 {
		t.Fatalf("re-keying an armed timer allocates %.2f allocs/run, want 0", avg)
	}
	if !tm.Armed() {
		t.Fatal("timer should still be armed")
	}
}
