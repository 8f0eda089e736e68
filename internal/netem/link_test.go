package netem

import (
	"math/rand"
	"testing"
	"time"

	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// collector records delivered packets with their arrival times.
type collector struct {
	sched *sim.Scheduler
	pkts  []*Packet
	at    []sim.Time
}

func (c *collector) Receive(p *Packet) {
	c.pkts = append(c.pkts, p)
	if c.sched != nil {
		c.at = append(c.at, c.sched.Now())
	}
}

func TestLinkTransmissionPlusPropagation(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	// 0.8 Mbps, 50 ms: a 1000-byte packet serializes in 10 ms.
	l := Must(NewLink(s, 0.8e6, 50*time.Millisecond, Must(NewDropTail(10)), sink))
	l.Receive(pkt(1))
	s.RunAll()
	want := 60 * time.Millisecond
	if len(sink.at) != 1 || sink.at[0] != want {
		t.Fatalf("arrival %v, want %v", sink.at, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	l := Must(NewLink(s, 0.8e6, 50*time.Millisecond, Must(NewDropTail(10)), sink))
	l.Receive(pkt(1))
	l.Receive(pkt(2))
	l.Receive(pkt(3))
	s.RunAll()
	if len(sink.at) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(sink.at))
	}
	// Successive packets are spaced by the 10 ms serialization time.
	for i := 1; i < 3; i++ {
		gap := sink.at[i] - sink.at[i-1]
		if gap != 10*time.Millisecond {
			t.Fatalf("gap %d = %v, want 10ms", i, gap)
		}
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	l := Must(NewLink(s, 0.8e6, time.Millisecond, Must(NewDropTail(2)), sink))
	// One packet goes straight to the transmitter; two queue; the rest drop.
	for i := uint64(0); i < 6; i++ {
		l.Receive(pkt(i))
	}
	s.RunAll()
	if len(sink.pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3 (1 in flight + 2 queued)", len(sink.pkts))
	}
	if l.Queue().Drops != 3 {
		t.Fatalf("drops = %d, want 3", l.Queue().Drops)
	}
}

// at runs fn at simulated instant t.
func at(t *testing.T, s *sim.Scheduler, when sim.Time, fn func()) {
	t.Helper()
	if err := s.NewTimer(fn).At(when); err != nil {
		t.Fatal(err)
	}
}

// TestLinkDelayDecreaseMidFlight steps the propagation delay down while
// packets are on the wire. Each packet must arrive at its transmission
// start + serialization + the delay in force when it was transmitted,
// so later packets overtake earlier ones, and packets due at the same
// instant arrive in transmission order.
func TestLinkDelayDecreaseMidFlight(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	// 0.8 Mbps: a 1000-byte packet serializes in 10 ms, so packet i
	// starts transmitting at 10i ms.
	l := Must(NewLink(s, 0.8e6, 50*time.Millisecond, Must(NewDropTail(10)), sink))
	for i := uint64(0); i < 5; i++ {
		l.Receive(pkt(i))
	}
	ms := time.Millisecond
	at(t, s, 15*ms, func() { l.SetDelay(30 * ms) }) //nolint:errcheck // valid delay
	at(t, s, 25*ms, func() { l.SetDelay(5 * ms) })  //nolint:errcheck // valid delay
	s.RunAll()

	// tx start, delay at tx, arrival:
	//   p0   0 ms  50 ms  60 ms
	//   p1  10 ms  50 ms  70 ms
	//   p2  20 ms  30 ms  60 ms  (ties p0; p0 was sent first)
	//   p3  30 ms   5 ms  45 ms  (overtakes the whole wire: new head)
	//   p4  40 ms   5 ms  55 ms
	wantID := []uint64{3, 4, 0, 2, 1}
	wantAt := []sim.Time{45 * ms, 55 * ms, 60 * ms, 60 * ms, 70 * ms}
	if len(sink.pkts) != len(wantID) {
		t.Fatalf("delivered %d packets, want %d", len(sink.pkts), len(wantID))
	}
	for i := range wantID {
		if sink.pkts[i].ID != wantID[i] || sink.at[i] != wantAt[i] {
			t.Errorf("delivery %d: packet %d at %v, want packet %d at %v",
				i, sink.pkts[i].ID, sink.at[i], wantID[i], wantAt[i])
		}
	}
}

// TestLinkFlapDropsWireAtArrival takes the link down while three
// packets are on the wire. Each must be dropped at the instant it would
// have arrived (even though the link is back up by then) and counted in
// FaultDrops; a packet sent after the link comes back is delivered.
func TestLinkFlapDropsWireAtArrival(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	ring := telemetry.NewRing(0)
	l := Must(NewLink(s, 0.8e6, 50*time.Millisecond, Must(NewDropTail(10)), sink))
	l.Instrument(telemetry.NewBus(ring), "l")
	for i := uint64(0); i < 4; i++ {
		l.Receive(pkt(i))
	}
	ms := time.Millisecond
	// p0..p2 are transmitted at 0, 10 and 20 ms; p3 waits in the queue
	// through the outage and is transmitted at 40 ms.
	at(t, s, 25*ms, func() { l.SetDown(true) })
	at(t, s, 40*ms, func() { l.SetDown(false) })
	s.RunAll()

	if l.FaultDrops != 3 {
		t.Errorf("FaultDrops = %d, want 3", l.FaultDrops)
	}
	drops := ring.EventsOf(telemetry.KDrop)
	wantDropAt := []sim.Time{60 * ms, 70 * ms, 80 * ms}
	if len(drops) != len(wantDropAt) {
		t.Fatalf("%d drop events, want %d", len(drops), len(wantDropAt))
	}
	for i, ev := range drops {
		if ev.At != wantDropAt[i] {
			t.Errorf("drop %d at %v, want %v", i, ev.At, wantDropAt[i])
		}
	}
	if len(sink.pkts) != 1 || sink.pkts[0].ID != 3 || sink.at[0] != 100*ms {
		t.Fatalf("delivered %d packets (first %v), want packet 3 at 100ms", len(sink.pkts), sink.at)
	}
}

// TestLinkOnePendingDelivery checks the delay line's point: however
// many packets are on the wire, the link keeps a single delivery event
// pending in the scheduler.
func TestLinkOnePendingDelivery(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	// 8 Mbps: 1 ms per packet, far below the 100 ms propagation delay.
	l := Must(NewLink(s, 8e6, 100*time.Millisecond, Must(NewDropTail(20)), sink))
	const n = 10
	for i := uint64(0); i < n; i++ {
		l.Receive(pkt(i))
	}
	// After 10.5 ms every packet has been serialized and none arrived.
	s.Run(10*time.Millisecond + 500*time.Microsecond)
	if l.wire.n != n {
		t.Fatalf("%d packets on the wire, want %d", l.wire.n, n)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d with %d packets on the wire, want 1", got, n)
	}
	s.RunAll()
	if len(sink.pkts) != n {
		t.Fatalf("delivered %d packets, want %d", len(sink.pkts), n)
	}
}

func TestLinkIdleThenBusyAgain(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	l := Must(NewLink(s, 8e6, time.Millisecond, Must(NewDropTail(10)), sink))
	l.Receive(pkt(1))
	s.RunAll()
	l.Receive(pkt(2))
	s.RunAll()
	if len(sink.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(sink.pkts))
	}
	if l.TxPackets != 2 {
		t.Fatalf("tx packets = %d, want 2", l.TxPackets)
	}
}

func TestLinkCountsBytes(t *testing.T) {
	s := sim.NewScheduler(1)
	sink := &collector{sched: s}
	l := Must(NewLink(s, 8e6, time.Millisecond, nil, sink))
	l.Receive(&Packet{ID: 1, Kind: Ack, Size: 40})
	l.Receive(&Packet{ID: 2, Kind: Data, Size: 1000, Len: 1000})
	s.RunAll()
	if l.TxBytes != 1040 {
		t.Fatalf("tx bytes = %d, want 1040", l.TxBytes)
	}
}

func TestLinkSmallPacketsFaster(t *testing.T) {
	s := sim.NewScheduler(1)
	l := Must(NewLink(s, 0.8e6, 0, nil, &collector{sched: s}))
	ack := l.TransmissionDelay(40)
	data := l.TransmissionDelay(1000)
	if ack >= data {
		t.Fatalf("ack tx delay %v not below data %v", ack, data)
	}
	if data != 10*time.Millisecond {
		t.Fatalf("data tx delay %v, want 10ms", data)
	}
}

func TestNodeFuncAdapts(t *testing.T) {
	var got *Packet
	n := NodeFunc(func(p *Packet) { got = p })
	want := pkt(7)
	n.Receive(want)
	if got != want {
		t.Fatal("NodeFunc did not forward the packet")
	}
}

// TestDelayLineOrder drives a delay line through random inserts and
// pops, growing it while its head is mid-ring, and checks every pop
// against a reference: the pending entries sorted by (at, seq).
func TestDelayLineOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w delayLine
	var ref []wireEntry
	var seq uint64
	for i := 0; i < 5000; i++ {
		if len(ref) == 0 || rng.Intn(3) > 0 {
			// Mostly increasing arrival times, with some packets
			// overtaking, as after a SetDelay decrease.
			at := sim.Time(i) + sim.Time(rng.Intn(40))
			e := wireEntry{at: at, seq: seq}
			seq++
			head := w.insert(e)
			j := len(ref)
			for j > 0 && ref[j-1].at > at {
				j--
			}
			ref = append(ref[:j], append([]wireEntry{e}, ref[j:]...)...)
			if head != (j == 0) {
				t.Fatalf("insert %d: reported head=%v, reference position %d", i, head, j)
			}
			continue
		}
		got := w.pop()
		if got.at != ref[0].at || got.seq != ref[0].seq {
			t.Fatalf("pop %d: got (%v, %d), want (%v, %d)", i, got.at, got.seq, ref[0].at, ref[0].seq)
		}
		ref = ref[1:]
		if w.n != len(ref) {
			t.Fatalf("pop %d: %d entries, reference holds %d", i, w.n, len(ref))
		}
	}
}
