package tcp

import (
	"time"

	"rrtcp/internal/netem"
	"rrtcp/internal/sim"
	"rrtcp/internal/telemetry"
)

// Receiver is the data sink of a connection. Matching the paper's
// setup, it acknowledges every data packet it receives, and it sends an
// immediate duplicate ACK for each out-of-sequence arrival ("the
// delayed acknowledgment mechanism is off"). It needs no modification
// for RR — that is the point of the paper — but can optionally attach
// SACK blocks for the SACK-TCP baseline.
type Receiver struct {
	sched *sim.Scheduler
	out   netem.Node
	flow  int

	// SACKEnabled makes ACKs carry up to three SACK blocks.
	SACKEnabled bool
	// AckSize is the wire size of generated ACKs (paper: 40 bytes).
	AckSize int
	// DelayedAck enables RFC 1122-style delayed acknowledgments for
	// in-order data: one ACK per two segments, or after AckDelay. The
	// paper runs with this OFF ("the receiver sends an ACK for every
	// data packet"); it is provided for the delayed-ACK extension
	// experiments. Out-of-order arrivals and hole fills are always
	// acknowledged immediately, per RFC 5681.
	DelayedAck bool
	// AckDelay bounds how long an acknowledgment may be withheld
	// (default 200 ms).
	AckDelay sim.Time

	rcvNxt int64
	blocks []seqRange // out-of-order data, sorted by Start, disjoint
	recent []seqRange // recency order for SACK block selection

	unacked  int // in-order segments received since the last ACK
	ackTimer *sim.Timer

	// Pool, when non-nil, supplies outgoing ACKs and receives every
	// consumed data packet back.
	Pool *netem.PacketPool

	// Telemetry, when non-nil, receives the receiver's delivery events.
	Telemetry *telemetry.Bus

	// Delivered counts in-order bytes handed to the application.
	Delivered int64
	// Segments counts data packets processed.
	Segments uint64
	// DupSegments counts arrivals fully below rcvNxt.
	DupSegments uint64
}

type seqRange struct {
	Start int64
	End   int64
}

var _ netem.Node = (*Receiver)(nil)

// NewReceiver builds a receiver whose ACKs go to out.
func NewReceiver(sched *sim.Scheduler, flow int, out netem.Node) *Receiver {
	r := &Receiver{
		sched:    sched,
		out:      out,
		flow:     flow,
		AckSize:  40,
		AckDelay: 200 * time.Millisecond,
	}
	r.ackTimer = sched.NewTimer(r.flushAck)
	return r
}

// SetOutput redirects generated ACKs to a different node, letting
// experiments interpose loss modules on the reverse path (§2.3).
func (r *Receiver) SetOutput(n netem.Node) { r.out = n }

// RcvNxt reports the next expected in-order byte.
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// OutOfOrderBlocks returns a copy of the buffered out-of-order ranges.
func (r *Receiver) OutOfOrderBlocks() []netem.SACKBlock {
	out := make([]netem.SACKBlock, 0, len(r.blocks))
	for _, b := range r.blocks {
		out = append(out, netem.SACKBlock{Start: b.Start, End: b.End})
	}
	return out
}

// Receive implements netem.Node for data packets.
func (r *Receiver) Receive(p *netem.Packet) {
	defer p.Release() // the receiver buffers ranges, never packets
	if p.Kind != netem.Data || p.Flow != r.flow {
		return
	}
	r.Segments++
	switch {
	case p.EndSeq() <= r.rcvNxt:
		// Entirely old data (e.g. a spurious retransmission): re-ACK
		// immediately.
		r.DupSegments++
		r.flushAck()
	case p.Seq <= r.rcvNxt:
		// In-order (possibly partially old): deliver and drain any
		// buffered blocks that became contiguous.
		hadHole := len(r.blocks) > 0
		r.advance(p.EndSeq())
		if !r.DelayedAck || hadHole {
			// Hole fills are acknowledged immediately (RFC 5681).
			r.flushAck()
			return
		}
		r.unacked++
		if r.unacked >= 2 {
			r.flushAck()
		} else if !r.ackTimer.Armed() {
			r.ackTimer.Reset(r.AckDelay)
		}
	default:
		// Out of order: buffer and emit an immediate duplicate ACK.
		r.insert(seqRange{Start: p.Seq, End: p.EndSeq()})
		r.flushAck()
	}
}

// flushAck emits a cumulative ACK now and clears delayed-ACK state.
func (r *Receiver) flushAck() {
	r.unacked = 0
	r.ackTimer.Stop()
	r.sendAck()
}

func (r *Receiver) advance(end int64) {
	if end > r.rcvNxt {
		r.rcvNxt = end
	}
	// Drain contiguous buffered blocks.
	for len(r.blocks) > 0 && r.blocks[0].Start <= r.rcvNxt {
		if r.blocks[0].End > r.rcvNxt {
			r.rcvNxt = r.blocks[0].End
		}
		r.dropRecent(r.blocks[0])
		r.blocks = r.blocks[1:]
	}
	r.Delivered = r.rcvNxt
	if r.Telemetry.Enabled() {
		r.Telemetry.Publish(telemetry.Event{
			At:   r.sched.Now(),
			Comp: telemetry.CompRecv,
			Kind: telemetry.KDeliver,
			Flow: int32(r.flow),
			Seq:  r.rcvNxt,
		})
	}
}

func (r *Receiver) insert(nb seqRange) {
	// Merge nb into the sorted disjoint block list.
	merged := make([]seqRange, 0, len(r.blocks)+1)
	inserted := false
	for _, b := range r.blocks {
		switch {
		case b.End < nb.Start:
			merged = append(merged, b)
		case nb.End < b.Start:
			if !inserted {
				merged = append(merged, nb)
				inserted = true
			}
			merged = append(merged, b)
		default: // overlap or adjacency: absorb
			r.dropRecent(b)
			if b.Start < nb.Start {
				nb.Start = b.Start
			}
			if b.End > nb.End {
				nb.End = b.End
			}
		}
	}
	if !inserted {
		merged = append(merged, nb)
	}
	r.blocks = merged
	// Most-recently-updated block goes to the head of the recency list.
	r.recent = append([]seqRange{nb}, r.recent...)
	if len(r.recent) > 6 {
		r.recent = r.recent[:6]
	}
}

func (r *Receiver) dropRecent(b seqRange) {
	for i, rb := range r.recent {
		if rb.Start >= b.Start && rb.End <= b.End {
			r.recent = append(r.recent[:i], r.recent[i+1:]...)
			return
		}
	}
}

func (r *Receiver) sendAck() {
	ack := r.Pool.Get()
	ack.ID = netem.NextID()
	ack.Flow = r.flow
	ack.Kind = netem.Ack
	ack.AckNo = r.rcvNxt
	ack.Size = r.AckSize
	if r.SACKEnabled {
		ack.SACK = r.appendSACKBlocks(ack.SACK[:0])
	}
	r.out.Receive(ack)
}

// appendSACKBlocks appends up to three blocks to dst, most recently
// changed first, per RFC 2018's reporting rules. Appending into the
// caller's (recycled) slice keeps steady-state ACK generation
// allocation-free.
func (r *Receiver) appendSACKBlocks(dst []netem.SACKBlock) []netem.SACKBlock {
	var seen [3]seqRange // at most three reported blocks to dedup against
	out := dst
	appendBlock := func(q seqRange) {
		if len(out)-len(dst) >= 3 {
			return
		}
		for i := 0; i < len(out)-len(dst); i++ {
			if seen[i] == q {
				return
			}
		}
		seen[len(out)-len(dst)] = q
		out = append(out, netem.SACKBlock{Start: q.Start, End: q.End})
	}
	for _, q := range r.recent {
		// Only report blocks that still exist (were not delivered).
		for _, b := range r.blocks {
			if q.Start >= b.Start && q.End <= b.End {
				appendBlock(b)
				break
			}
		}
	}
	for _, b := range r.blocks {
		appendBlock(b)
	}
	return out
}
