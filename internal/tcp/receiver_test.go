package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
)

// ackSink records ACKs emitted by a receiver.
type ackSink struct {
	acks []*netem.Packet
}

func (a *ackSink) Receive(p *netem.Packet) { a.acks = append(a.acks, p) }

func (a *ackSink) last() *netem.Packet {
	if len(a.acks) == 0 {
		return nil
	}
	return a.acks[len(a.acks)-1]
}

func newRecv(sack bool) (*Receiver, *ackSink) {
	sink := &ackSink{}
	r := NewReceiver(sim.NewScheduler(1), 0, sink)
	r.SACKEnabled = sack
	return r, sink
}

func data(seq int64) *netem.Packet {
	return &netem.Packet{Flow: 0, Kind: netem.Data, Seq: seq, Len: 1000, Size: 1000}
}

func TestReceiverInOrderDelivery(t *testing.T) {
	r, sink := newRecv(false)
	for i := int64(0); i < 5; i++ {
		r.Receive(data(i * 1000))
	}
	if r.RcvNxt() != 5000 {
		t.Fatalf("rcvNxt = %d, want 5000", r.RcvNxt())
	}
	if len(sink.acks) != 5 {
		t.Fatalf("%d ACKs, want one per packet", len(sink.acks))
	}
	for i, a := range sink.acks {
		if a.AckNo != int64(i+1)*1000 {
			t.Fatalf("ack %d = %d, want %d", i, a.AckNo, (i+1)*1000)
		}
	}
}

func TestReceiverImmediateDupAckOnGap(t *testing.T) {
	r, sink := newRecv(false)
	r.Receive(data(0))
	r.Receive(data(2000)) // gap at 1000
	r.Receive(data(3000))
	if r.RcvNxt() != 1000 {
		t.Fatalf("rcvNxt advanced past the hole: %d", r.RcvNxt())
	}
	if len(sink.acks) != 3 {
		t.Fatalf("%d ACKs, want 3 (one per arrival)", len(sink.acks))
	}
	if sink.acks[1].AckNo != 1000 || sink.acks[2].AckNo != 1000 {
		t.Fatal("out-of-order arrivals did not produce duplicate ACKs")
	}
}

func TestReceiverFillsHoleAndJumps(t *testing.T) {
	r, sink := newRecv(false)
	r.Receive(data(0))
	r.Receive(data(2000))
	r.Receive(data(3000))
	r.Receive(data(1000)) // fill
	if r.RcvNxt() != 4000 {
		t.Fatalf("rcvNxt = %d after filling the hole, want 4000", r.RcvNxt())
	}
	if sink.last().AckNo != 4000 {
		t.Fatalf("big ACK = %d, want 4000", sink.last().AckNo)
	}
}

func TestReceiverDuplicateOldSegment(t *testing.T) {
	r, sink := newRecv(false)
	r.Receive(data(0))
	r.Receive(data(0)) // spurious retransmission
	if r.DupSegments != 1 {
		t.Fatalf("dupSegments = %d, want 1", r.DupSegments)
	}
	if sink.last().AckNo != 1000 {
		t.Fatal("old segment did not re-ACK rcvNxt")
	}
}

func TestReceiverIgnoresWrongFlowAndAcks(t *testing.T) {
	r, sink := newRecv(false)
	wrong := data(0)
	wrong.Flow = 3
	r.Receive(wrong)
	r.Receive(&netem.Packet{Flow: 0, Kind: netem.Ack, AckNo: 1000, Size: 40})
	if len(sink.acks) != 0 {
		t.Fatal("receiver responded to foreign or ACK packets")
	}
}

func TestReceiverSACKBlocks(t *testing.T) {
	r, sink := newRecv(true)
	r.Receive(data(0))
	r.Receive(data(2000))
	r.Receive(data(4000))
	r.Receive(data(6000))
	last := sink.last()
	if len(last.SACK) != 3 {
		t.Fatalf("%d SACK blocks, want 3", len(last.SACK))
	}
	// First block reports the most recent arrival.
	if last.SACK[0].Start != 6000 || last.SACK[0].End != 7000 {
		t.Fatalf("first SACK block %+v, want [6000,7000)", last.SACK[0])
	}
}

func TestReceiverSACKBlocksMerge(t *testing.T) {
	r, sink := newRecv(true)
	r.Receive(data(0))
	r.Receive(data(2000))
	r.Receive(data(3000)) // adjacent: merges with [2000,3000)
	last := sink.last()
	if len(last.SACK) != 1 {
		t.Fatalf("%d SACK blocks, want 1 merged", len(last.SACK))
	}
	if last.SACK[0].Start != 2000 || last.SACK[0].End != 4000 {
		t.Fatalf("merged block %+v, want [2000,4000)", last.SACK[0])
	}
}

func TestReceiverNoSACKWhenDisabled(t *testing.T) {
	r, sink := newRecv(false)
	r.Receive(data(2000))
	if len(sink.last().SACK) != 0 {
		t.Fatal("SACK blocks on a non-SACK receiver")
	}
}

func TestReceiverOutOfOrderBlocksAccessor(t *testing.T) {
	r, _ := newRecv(false)
	r.Receive(data(2000))
	r.Receive(data(5000))
	blocks := r.OutOfOrderBlocks()
	if len(blocks) != 2 {
		t.Fatalf("%d blocks, want 2", len(blocks))
	}
	if blocks[0].Start != 2000 || blocks[1].Start != 5000 {
		t.Fatalf("blocks %v not sorted", blocks)
	}
}

// Property: delivering a random permutation of segments always ends
// with rcvNxt covering everything, rcvNxt monotonically nondecreasing,
// and one ACK per arrival.
func TestReceiverPermutationProperty(t *testing.T) {
	f := func(seed int64, nSeg uint8) bool {
		n := int(nSeg%30) + 1
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n)
		r, sink := newRecv(true)
		prev := int64(0)
		for _, i := range perm {
			r.Receive(data(int64(i) * 1000))
			if r.RcvNxt() < prev {
				return false
			}
			prev = r.RcvNxt()
		}
		return r.RcvNxt() == int64(n)*1000 &&
			len(sink.acks) == n &&
			len(r.OutOfOrderBlocks()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with duplicated deliveries mixed in, the receiver still
// converges and never reports overlapping out-of-order blocks.
func TestReceiverDuplicatesProperty(t *testing.T) {
	f := func(seed int64, nSeg uint8) bool {
		n := int(nSeg%20) + 1
		rng := rand.New(rand.NewSource(seed))
		r, _ := newRecv(true)
		// Deliver 3n random segments from [0, n), then the full set.
		for i := 0; i < 3*n; i++ {
			r.Receive(data(int64(rng.Intn(n)) * 1000))
			blocks := r.OutOfOrderBlocks()
			for j := 1; j < len(blocks); j++ {
				if blocks[j].Start < blocks[j-1].End {
					return false // overlap or disorder
				}
			}
		}
		for i := 0; i < n; i++ {
			r.Receive(data(int64(i) * 1000))
		}
		return r.RcvNxt() == int64(n)*1000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReceiverPartiallyOldSegment(t *testing.T) {
	// A segment straddling rcvNxt (old bytes + new bytes) delivers the
	// new portion.
	r, sink := newRecv(false)
	r.Receive(data(0))
	// 1500-byte segment starting at 500: bytes 500..1000 are old.
	r.Receive(&netem.Packet{Flow: 0, Kind: netem.Data, Seq: 500, Len: 1500, Size: 1500})
	if r.RcvNxt() != 2000 {
		t.Fatalf("rcvNxt = %d, want 2000", r.RcvNxt())
	}
	if sink.last().AckNo != 2000 {
		t.Fatalf("ack = %d", sink.last().AckNo)
	}
}

func TestReceiverManyDistinctHoles(t *testing.T) {
	// Every other packet arrives: the block list must track all holes
	// and drain in one pass once they fill.
	r, _ := newRecv(true)
	for i := int64(1); i <= 19; i += 2 {
		r.Receive(data(i * 1000))
	}
	if got := len(r.OutOfOrderBlocks()); got != 10 {
		t.Fatalf("%d blocks, want 10", got)
	}
	for i := int64(0); i <= 18; i += 2 {
		r.Receive(data(i * 1000))
	}
	if r.RcvNxt() != 20*1000 {
		t.Fatalf("rcvNxt = %d", r.RcvNxt())
	}
	if len(r.OutOfOrderBlocks()) != 0 {
		t.Fatal("blocks left after draining")
	}
}
