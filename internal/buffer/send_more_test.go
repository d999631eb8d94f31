package buffer

import (
	"testing"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

func TestOldestPktSeq(t *testing.T) {
	b := NewSendBuffer()
	if got := b.OldestPktSeq(7); got != 7 {
		t.Fatalf("empty buffer oldest = %d, want next (7)", got)
	}
	b.Insert(seg(0, 10, 3))
	b.Insert(seg(10, 10, 4))
	b.Insert(seg(20, 10, 5))
	if got := b.OldestPktSeq(6); got != 3 {
		t.Fatalf("oldest = %d, want 3", got)
	}
	// Retransmit the oldest: its number is superseded.
	b.Retransmitted(b.ByPktSeq(3), 6, 0)
	if got := b.OldestPktSeq(7); got != 4 {
		t.Fatalf("oldest after retx = %d, want 4", got)
	}
	// Release the two originals: the retransmitted segment (now pkt 6)
	// remains until its bytes are acked.
	b.AckPktRanges([]seqspace.Range{{Lo: 4, Hi: 6}})
	if got := b.OldestPktSeq(7); got != 6 {
		t.Fatalf("oldest = %d, want retransmitted pkt 6", got)
	}
	// Cumulative byte ack covers the retransmitted bytes: drained.
	b.AckBytes(30)
	if got := b.OldestPktSeq(7); got != 7 {
		t.Fatalf("drained oldest = %d, want 7", got)
	}
}

func TestReleasePktBelow(t *testing.T) {
	b := NewSendBuffer()
	for i := uint64(0); i < 6; i++ {
		b.Insert(seg(i*10, 10, i))
	}
	if n := b.ReleasePktBelow(3); n != 3 {
		t.Fatalf("released %d, want 3", n)
	}
	if b.Len() != 3 || b.ByPktSeq(2) != nil || b.ByPktSeq(3) == nil {
		t.Fatalf("wrong segments released: len=%d", b.Len())
	}
	// Idempotent / monotone.
	if n := b.ReleasePktBelow(3); n != 0 {
		t.Fatalf("re-release freed %d", n)
	}
	if n := b.ReleasePktBelow(100); n != 3 {
		t.Fatalf("final release freed %d, want 3", n)
	}
	if b.ReleasedBytes() != 60 {
		t.Fatalf("ReleasedBytes = %d, want 60", b.ReleasedBytes())
	}
}

func TestReleaseClearsLossMark(t *testing.T) {
	b := NewSendBuffer()
	b.Insert(seg(0, 10, 1))
	b.MarkLoss(b.ByPktSeq(1))
	if !b.HasMarked() {
		t.Fatal("mark missing")
	}
	b.AckBytes(10)
	if b.HasMarked() {
		t.Fatal("released segment still counted as marked")
	}
	if got := b.LossMarked(); len(got) != 0 {
		t.Fatalf("LossMarked = %v", got)
	}
}

func TestMarkLossIgnoresReleased(t *testing.T) {
	b := NewSendBuffer()
	b.Insert(seg(0, 10, 1))
	s := b.ByPktSeq(1)
	b.AckBytes(10)
	b.MarkLoss(s)
	if b.HasMarked() {
		t.Fatal("released segment must not be markable")
	}
}

func TestForEachEligibleRetransmit(t *testing.T) {
	b := NewSendBuffer()
	rtt := 100 * sim.Millisecond
	for i := uint64(0); i < 4; i++ {
		b.Insert(seg(i*10, 10, i))
	}
	b.MarkLossByPktRanges([]seqspace.Range{{Lo: 0, Hi: 4}})
	var visited []uint64
	b.ForEachEligibleRetransmit(0, rtt, func(s *Segment) bool {
		visited = append(visited, s.Seq)
		return len(visited) < 3 // stop early
	})
	if len(visited) != 3 || visited[0] != 0 || visited[1] != 10 || visited[2] != 20 {
		t.Fatalf("visited %v, want first three in stream order", visited)
	}
	// Retransmit one mid-walk style: cooldown applies afterwards.
	s1 := b.BySeq(0)
	b.MarkLoss(s1) // still marked? Retransmitted clears; re-mark first
	b.Retransmitted(s1, 10, 50*sim.Millisecond)
	b.MarkLoss(s1)
	count := 0
	b.ForEachEligibleRetransmit(60*sim.Millisecond, rtt, func(s *Segment) bool {
		if s == s1 {
			t.Fatal("cooldown violated")
		}
		count++
		return true
	})
	if count == 0 {
		t.Fatal("other marked segments should still be eligible")
	}
}

func TestMaybeCompactOrder(t *testing.T) {
	b := NewSendBuffer()
	for i := uint64(0); i < 3000; i++ {
		b.Insert(seg(i*10, 10, i))
	}
	b.AckBytes(3000 * 10)
	if b.Len() != 0 {
		t.Fatalf("Len = %d after full ack", b.Len())
	}
	// Both queues must have dropped their dead prefix.
	if len(b.segs) != 0 || len(b.pkts) != 0 || b.pktBase != 3000 {
		t.Fatalf("queues not drained: segs=%d pkts=%d pktBase=%d", len(b.segs), len(b.pkts), b.pktBase)
	}
	// Buffer remains usable.
	b.Insert(seg(1<<20, 10, 9999))
	if b.Oldest() == nil || b.ByPktSeq(9999) == nil {
		t.Fatal("buffer unusable after draining")
	}
}

func TestPeerChosenPacketNumbersAreClamped(t *testing.T) {
	// Ranges reaching far past anything sent must cost no more than the
	// live window and touch nothing outside it.
	const huge = uint64(1) << 62
	b := NewSendBuffer()
	for i := uint64(0); i < 4; i++ {
		b.Insert(seg(i*10, 10, i))
	}
	if got := b.ByPktSeq(huge); got != nil {
		t.Fatalf("ByPktSeq(2^62) = %+v", got)
	}
	if marked := b.MarkLossByPktRanges([]seqspace.Range{{Lo: 2, Hi: huge}}); len(marked) != 2 {
		t.Fatalf("marked %d segments, want 2", len(marked))
	}
	if n := b.AckPktRanges([]seqspace.Range{{Lo: 3, Hi: huge}}); n != 1 {
		t.Fatalf("AckPktRanges released %d, want 1", n)
	}
	if n := b.ReleasePktBelow(huge); n != 3 {
		t.Fatalf("ReleasePktBelow released %d, want 3", n)
	}
	if got := b.OldestPktSeq(4); got != 4 {
		t.Fatalf("OldestPktSeq = %d, want 4", got)
	}
	b.Insert(seg(40, 10, 4))
	if b.ByPktSeq(4) == nil || b.OldestPktSeq(5) != 4 {
		t.Fatal("buffer unusable after hostile ranges")
	}
}
