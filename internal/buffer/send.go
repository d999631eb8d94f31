// Package buffer implements the transport's sender retransmission buffer
// and receiver reassembly buffer.
//
// The sender buffer maintains the paper's (SEQ, PKT.SEQ) two-tuple per
// in-flight segment (§5.1): a byte range plus the packet number of its most
// recent transmission. Retransmitting replaces the tuple's packet number
// with the fresh one, so stale loss reports for superseded numbers are
// ignored without extra state.
//
// The receiver buffer reassembles the bytestream and accounts the bytes
// blocked behind the first hole (head-of-line blocking), which Figure 5(a)
// of the paper measures.
package buffer

import (
	"sort"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

// Segment is one in-flight unit of the bytestream at the sender.
type Segment struct {
	Seq    uint64 // byte offset
	Len    int    // payload length
	PktSeq uint64 // packet number of the most recent transmission
	FIN    bool   // segment carries the end-of-stream marker

	// Stream-frame identity (stream-multiplexed connections). Seq/Len still
	// describe the connection-level footprint — for a StreamFIN segment Len
	// includes the one phantom byte that carries the stream FIN through the
	// retransmission machinery.
	HasStream bool
	StreamID  uint32
	StreamOff uint64
	StreamFIN bool

	SentAt      sim.Time // departure time of the most recent transmission
	Retransmits int      // how many times this byte range was re-sent
	LossMarked  bool     // a loss report for the current PktSeq is pending service
	lastRetx    sim.Time // last retransmission time (for the once-per-RTT rule)
	hasRetx     bool
	released    bool // removed from the buffer (acknowledged)
}

// End returns the byte offset one past the segment.
func (s *Segment) End() uint64 { return s.Seq + uint64(s.Len) }

// SendBuffer tracks unacknowledged segments in two send-order queues.
type SendBuffer struct {
	// segs holds segments in stream (Seq) order, appended as they are
	// first sent. An entry is dead once released; the dead prefix is
	// dropped as acknowledgments advance, so the head is the oldest
	// unacknowledged segment.
	segs []*Segment

	// pkts[i] is the segment sent as packet number pktBase+i. Packet
	// numbers are minted densely in send order, so the queue is also the
	// transmission-time order RACK walks. A slot is live while its segment
	// is unreleased and still carries that number (a retransmission
	// supersedes it); the dead prefix is dropped as acknowledgments
	// advance, so pktBase is the oldest outstanding packet number. Every
	// lookup and range walk is clamped to [pktBase, pktBase+len(pkts)):
	// a peer-chosen packet number costs nothing beyond the live window.
	pkts    []*Segment
	pktBase uint64
	// rackNext is where ScanRackLosses resumes: every slot below it is
	// dead or already loss-marked.
	rackNext uint64

	live  int // unacked segments
	bytes int // unacked payload bytes

	// releasedBytes counts payload bytes ever acknowledged (cumulatively or
	// selectively) — the sender-side delivered-data counter.
	releasedBytes int64

	// marked tracks loss-marked segments in ascending Seq order so hot
	// paths never scan or sort the whole buffer. Entries go stale when a
	// segment is retransmitted (mark cleared) or released; markedLive
	// counts the rest and compaction runs only when stale entries dominate.
	marked     []*Segment
	markedLive int

	// RACK delivery state: the most recently *transmitted* segment ever
	// acknowledged — RFC 8985's (RACK.xmit_ts, RACK.end_seq) pair, keyed
	// here by packet number since retransmissions get fresh PKT.SEQs.
	rackValid    bool
	rackXmitTime sim.Time
	rackPktSeq   uint64

	// Reordering evidence: a segment released on its original transmission
	// after a later transmission had already been acked by a *previous*
	// acknowledgment (batchRackPkt snapshots rackPktSeq per ack), or
	// released while loss-marked without ever being retransmitted (the mark
	// was provably premature). Cumulative count; the sender diffs it per
	// ack to widen the RACK reorder window.
	reorders     int64
	batchRackPkt uint64

	// Per-ack context set by BeginRateSample: the ack's arrival time and
	// the path's minimum RTT, used to reject ambiguous acks of
	// retransmitted segments from the RACK clock.
	ackNow      sim.Time
	ackRTTFloor sim.Time

	// OnRelease, when set, observes every segment release (each segment is
	// released exactly once, whichever acknowledgment path got there first).
	// The stream layer uses it to credit acknowledged frame bytes back to
	// the owning stream.
	OnRelease func(*Segment)
}

// NewSendBuffer returns an empty send buffer.
func NewSendBuffer() *SendBuffer { return &SendBuffer{} }

// Insert registers a freshly transmitted segment. Segments arrive in
// stream order and packet numbers never repeat.
func (b *SendBuffer) Insert(seg *Segment) {
	if n := len(b.segs); n > 0 && seg.Seq < b.segs[n-1].End() {
		panic("buffer: segment inserted out of stream order")
	}
	b.segs = append(b.segs, seg)
	b.live++
	b.bytes += seg.Len
	b.addPkt(seg)
}

// addPkt files seg under its current packet number at the tail of the
// packet-number queue; numbers skipped by the caller stay empty slots.
func (b *SendBuffer) addPkt(seg *Segment) {
	end := b.pktBase + uint64(len(b.pkts))
	if seg.PktSeq < end {
		panic("buffer: packet number reused")
	}
	if len(b.pkts) == 0 {
		b.pktBase, end = seg.PktSeq, seg.PktSeq
	}
	for ; end < seg.PktSeq; end++ {
		b.pkts = append(b.pkts, nil)
	}
	b.pkts = append(b.pkts, seg)
}

// Retransmitted updates a segment's packet number after it was re-sent:
// the old PKT.SEQ slot goes dead (paper §5.1: "the PKT.SEQ ... be always
// replaced and updated by the latest PKT.SEQ").
func (b *SendBuffer) Retransmitted(seg *Segment, newPktSeq uint64, now sim.Time) {
	seg.PktSeq = newPktSeq
	seg.SentAt = now
	seg.Retransmits++
	if seg.LossMarked {
		seg.LossMarked = false
		b.markedLive--
	}
	seg.lastRetx = now
	seg.hasRetx = true
	b.addPkt(seg)
	b.dropDead()
}

// MayRetransmit reports whether the once-per-RTT retransmission rule allows
// re-sending the segment at time now (paper §5.1: "the sender only
// retransmits a specific packet once per RTT").
func (b *SendBuffer) MayRetransmit(seg *Segment, now sim.Time, rtt sim.Time) bool {
	return !seg.hasRetx || now-seg.lastRetx >= rtt
}

// ByPktSeq returns the segment whose most recent transmission used pktSeq,
// or nil (e.g. the report refers to a superseded transmission).
func (b *SendBuffer) ByPktSeq(pktSeq uint64) *Segment {
	if pktSeq < b.pktBase || pktSeq-b.pktBase >= uint64(len(b.pkts)) {
		return nil
	}
	seg := b.pkts[pktSeq-b.pktBase]
	if seg == nil || seg.released || seg.PktSeq != pktSeq {
		return nil
	}
	return seg
}

// eachPkt calls fn on the live segment of every packet number in [lo, hi)
// that the queue holds.
func (b *SendBuffer) eachPkt(lo, hi uint64, fn func(*Segment)) {
	lo, hi = max(lo, b.pktBase), min(hi, b.pktBase+uint64(len(b.pkts)))
	for ; lo < hi; lo++ {
		if seg := b.ByPktSeq(lo); seg != nil {
			fn(seg)
		}
	}
}

// dropDead drops the dead prefix of both queues.
func (b *SendBuffer) dropDead() {
	i := 0
	for i < len(b.segs) && b.segs[i].released {
		i++
	}
	b.segs = dropPrefix(b.segs, i)
	i = 0
	for i < len(b.pkts) && b.ByPktSeq(b.pktBase+uint64(i)) == nil {
		i++
	}
	b.pkts = dropPrefix(b.pkts, i)
	b.pktBase += uint64(i)
}

// dropPrefix clears and drops the first n entries of q. A drained queue
// restarts at the front of its remaining storage.
func dropPrefix(q []*Segment, n int) []*Segment {
	clear(q[:n])
	if n == len(q) {
		return q[:0]
	}
	return q[n:]
}

// AckBytes removes every segment fully below cumAck (cumulative byte
// acknowledgment) and returns the number of segments released. The
// release is a prefix of the stream-order queue: amortized O(released).
func (b *SendBuffer) AckBytes(cumAck uint64) int {
	released := 0
	for _, seg := range b.segs {
		if seg.End() > cumAck {
			break
		}
		if !seg.released {
			b.release(seg)
			released++
		}
	}
	b.dropDead()
	return released
}

// AckPktRanges removes segments whose current packet number lies in any of
// the acked PKT.SEQ ranges. Returns the released count.
func (b *SendBuffer) AckPktRanges(ranges []seqspace.Range) int {
	released := 0
	for _, r := range ranges {
		b.eachPkt(r.Lo, r.Hi, func(seg *Segment) {
			b.release(seg)
			released++
		})
	}
	b.dropDead()
	return released
}

// ReleasePktBelow removes every segment whose current packet number is
// below cum: the receiver's cumulative packet number guarantees all of them
// were received (possibly crowded out of the selective-ack block budget).
// The walk starts at the oldest outstanding number, so it is amortized
// O(1) per packet number ever used.
func (b *SendBuffer) ReleasePktBelow(cum uint64) int {
	return b.AckPktRanges([]seqspace.Range{{Lo: 0, Hi: cum}})
}

func (b *SendBuffer) release(seg *Segment) {
	b.live--
	b.bytes -= seg.Len
	b.releasedBytes += int64(seg.Len)
	// Reordering evidence, judged before the mark is cleared below. Only
	// original transmissions count: a retransmission acked late proves
	// nothing about network ordering.
	if seg.Retransmits == 0 {
		if seg.LossMarked {
			// Marked lost, never retransmitted, yet the original arrived:
			// the reorder window was provably too narrow.
			b.reorders++
		} else if b.batchRackPkt > 0 && seg.PktSeq < b.batchRackPkt {
			// A later transmission was acked by an *earlier* ack (the
			// per-ack snapshot keeps same-ack batches, whose release order
			// is arbitrary, from counting).
			b.reorders++
		}
	}
	// Advance the RACK most-recently-sent-and-acked state — unless the
	// segment was retransmitted and the implied RTT is below the path
	// floor: that delivery was of an earlier transmission, and taking the
	// retransmit timestamp would spuriously age everything in flight.
	ambiguous := seg.Retransmits > 0 && b.ackRTTFloor > 0 &&
		b.ackNow-seg.SentAt < b.ackRTTFloor
	if !ambiguous && (!b.rackValid || seg.SentAt > b.rackXmitTime ||
		(seg.SentAt == b.rackXmitTime && seg.PktSeq > b.rackPktSeq)) {
		b.rackValid = true
		b.rackXmitTime = seg.SentAt
		b.rackPktSeq = seg.PktSeq
	}
	seg.released = true
	if seg.LossMarked {
		seg.LossMarked = false
		b.markedLive--
	}
	if b.OnRelease != nil {
		b.OnRelease(seg)
	}
}

// MarkLossByPktRanges flags segments in the reported lost PKT.SEQ ranges.
// Only segments whose *current* transmission is in a range are marked —
// reports about superseded packet numbers are stale and skipped. Returns the
// marked segments in stream order.
func (b *SendBuffer) MarkLossByPktRanges(ranges []seqspace.Range) []*Segment {
	var marked []*Segment
	for _, r := range ranges {
		b.eachPkt(r.Lo, r.Hi, func(seg *Segment) {
			if !seg.LossMarked {
				b.MarkLoss(seg)
				marked = append(marked, seg)
			}
		})
	}
	sort.Slice(marked, func(i, j int) bool { return marked[i].Seq < marked[j].Seq })
	return marked
}

// MarkLoss flags a single segment (used by sender-side detection paths),
// inserting it at its sorted position in the marked list.
func (b *SendBuffer) MarkLoss(seg *Segment) {
	if seg.LossMarked || seg.released {
		return
	}
	seg.LossMarked = true
	b.markedLive++
	n := len(b.marked)
	if n == 0 || b.marked[n-1].Seq <= seg.Seq {
		b.marked = append(b.marked, seg)
		return
	}
	i := sort.Search(n, func(i int) bool { return b.marked[i].Seq > seg.Seq })
	b.marked = append(b.marked, nil)
	copy(b.marked[i+1:], b.marked[i:])
	b.marked[i] = seg
}

// markedEntryLive reports whether a marked-list entry is still actionable.
func markedEntryLive(seg *Segment) bool { return seg.LossMarked && !seg.released }

// compactMarked drops stale entries once they dominate the list.
func (b *SendBuffer) compactMarked() {
	if len(b.marked)-b.markedLive <= len(b.marked)/2 || len(b.marked) < 64 {
		return
	}
	kept := b.marked[:0]
	for _, seg := range b.marked {
		if markedEntryLive(seg) {
			kept = append(kept, seg)
		}
	}
	b.marked = kept
}

// HasMarked reports whether any segment is flagged lost.
func (b *SendBuffer) HasMarked() bool { return b.markedLive > 0 }

// FirstEligibleRetransmit returns the lowest-Seq loss-marked segment whose
// once-per-RTT cooldown has expired, or nil.
func (b *SendBuffer) FirstEligibleRetransmit(now, rtt sim.Time) *Segment {
	b.compactMarked()
	for _, seg := range b.marked {
		if markedEntryLive(seg) && b.MayRetransmit(seg, now, rtt) {
			return seg
		}
	}
	return nil
}

// ForEachEligibleRetransmit visits every loss-marked segment whose
// once-per-RTT cooldown has expired, in stream order, in one pass. The
// callback may retransmit the segment (clearing its mark); returning false
// stops the walk.
func (b *SendBuffer) ForEachEligibleRetransmit(now, rtt sim.Time, fn func(*Segment) bool) {
	if b.markedLive == 0 {
		return
	}
	b.compactMarked()
	for i := 0; i < len(b.marked); i++ {
		seg := b.marked[i]
		if markedEntryLive(seg) && b.MayRetransmit(seg, now, rtt) {
			if !fn(seg) {
				return
			}
		}
	}
}

// Oldest returns the unacked segment with the lowest byte offset, or nil.
func (b *SendBuffer) Oldest() *Segment {
	if len(b.segs) == 0 {
		return nil
	}
	return b.segs[0]
}

// Newest returns the unacked segment with the highest byte offset (the
// tail a TLP probe retransmits), or nil when nothing is outstanding.
func (b *SendBuffer) Newest() *Segment {
	for i := len(b.segs) - 1; i >= 0; i-- {
		if !b.segs[i].released {
			return b.segs[i]
		}
	}
	return nil
}

// Bytes returns the total unacknowledged payload bytes.
func (b *SendBuffer) Bytes() int { return b.bytes }

// Len returns the number of unacknowledged segments.
func (b *SendBuffer) Len() int { return b.live }

// ReleasedBytes returns the cumulative payload bytes acknowledged
// (cumulatively or selectively) since the buffer was created.
func (b *SendBuffer) ReleasedBytes() int64 { return b.releasedBytes }

// BeginRateSample snapshots the RACK delivery state for reorder detection;
// call before processing one acknowledgment's releases. now is the ack's
// arrival time and rttFloor the path's minimum RTT (0 disables the check):
// together they disambiguate acks of retransmitted segments — a release
// whose implied RTT is below the floor was a delivery of an *earlier*
// transmission, so its retransmit timestamp must not advance the RACK
// clock (RFC 8985 §6.2 step 2).
func (b *SendBuffer) BeginRateSample(now, rttFloor sim.Time) {
	b.ackNow, b.ackRTTFloor = now, rttFloor
	if b.rackValid {
		b.batchRackPkt = b.rackPktSeq
	}
}

// RackState returns the transmission time and packet number of the most
// recently sent segment ever acknowledged (RFC 8985 RACK.xmit_ts /
// RACK.end_seq); ok is false before the first release.
func (b *SendBuffer) RackState() (xmitTime sim.Time, pktSeq uint64, ok bool) {
	return b.rackXmitTime, b.rackPktSeq, b.rackValid
}

// ReorderEvents returns the cumulative count of observed packet
// reorderings (original transmissions acknowledged out of send order, or
// loss marks disproven by a late original arrival). Diff across acks to
// react to fresh evidence.
func (b *SendBuffer) ReorderEvents() int64 { return b.reorders }

// ScanRackLosses walks unacknowledged, unmarked segments in transmission
// order (the packet-number queue), visiting only those sent before the
// RACK most-recently-delivered transmission (cutoff/cutoffPkt): strictly
// earlier send times qualify, and timestamp ties — a paced burst emits
// many segments at one instant — break by packet number like RFC 8985
// breaks them by sequence, so the unacked tail of the very burst the
// delivered segment came from is not mistaken for "older than delivered".
// fn returns true when it marked the segment lost (the slot is consumed; a
// retransmission files the segment under a fresh number); returning false
// stops the walk — every later slot was sent even more recently, so its
// loss deadline is further out. The returned sentAt/pending report the
// first un-marked candidate's transmission time so the caller can arm a
// reorder-window re-check timer.
func (b *SendBuffer) ScanRackLosses(cutoff sim.Time, cutoffPkt uint64, fn func(*Segment) bool) (sentAt sim.Time, pending bool) {
	b.rackNext = max(b.rackNext, b.pktBase)
	for end := b.pktBase + uint64(len(b.pkts)); b.rackNext < end; b.rackNext++ {
		seg := b.ByPktSeq(b.rackNext)
		if seg == nil || seg.LossMarked {
			continue
		}
		if seg.SentAt > cutoff || (seg.SentAt == cutoff && seg.PktSeq >= cutoffPkt) {
			return 0, false
		}
		if !fn(seg) {
			return seg.SentAt, true
		}
	}
	return 0, false
}

// OldestPktSeq returns the smallest packet number among the current
// transmissions of unacknowledged segments; when nothing is outstanding it
// returns next (the sender's next packet number). Every number below the
// result is dead: acknowledged or superseded by a retransmission.
func (b *SendBuffer) OldestPktSeq(next uint64) uint64 {
	if len(b.pkts) == 0 {
		return next
	}
	return b.pktBase
}

// Walk calls fn on every unacked segment in stream order; fn returning
// false stops the walk.
func (b *SendBuffer) Walk(fn func(*Segment) bool) {
	for _, seg := range b.segs {
		if !seg.released && !fn(seg) {
			return
		}
	}
}
