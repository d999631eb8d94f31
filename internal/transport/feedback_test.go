package transport

import (
	"testing"
	"time"

	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
)

// startedHarness returns a TACK flow that has completed its handshake and
// has data in flight, with sender metrics recorded in reg.
func startedHarness(t *testing.T, reg *telemetry.Registry) *harness {
	t.Helper()
	cfg := Config{Mode: ModeTACK, TransferBytes: 1 << 20, Metrics: reg}
	h := newHarness(t, 7, cfg, 50e6, ms(10), 0, 0)
	h.snd.Start()
	h.loop.RunUntil(ms(40))
	if !h.snd.Established() || h.snd.Inflight() == 0 {
		t.Fatalf("flow not under way: established=%v inflight=%d", h.snd.Established(), h.snd.Inflight())
	}
	return h
}

// finish runs the flow to completion after the hostile feedback.
func (h *harness) finish(t *testing.T) {
	t.Helper()
	h.loop.RunUntil(h.loop.Now() + 10*sim.Second)
	if !h.snd.Done() || h.rcv.Delivered() != 1<<20 {
		t.Fatalf("transfer did not recover: done=%v delivered=%d", h.snd.Done(), h.rcv.Delivered())
	}
}

func TestPeerChosenPacketNumbers(t *testing.T) {
	// A well-formed TACK may name any packet number. Work per ack must be
	// bounded by what the sender has in flight, not by the number: walking
	// up to 2^62 would hold the connection's goroutine forever.
	const huge = uint64(1) << 62
	reg := telemetry.NewRegistry()
	h := startedHarness(t, reg)
	s := h.snd
	cum := s.CumAcked()
	hostile := []*packet.AckInfo{
		{CumAck: cum, CumPktSeq: huge, LargestPktSeq: huge},
		{CumAck: cum, LargestPktSeq: huge, UnackedBlocks: []seqspace.Range{{Lo: 0, Hi: huge}}},
		{CumAck: cum, LargestPktSeq: huge, AckedBlocks: []seqspace.Range{{Lo: 0, Hi: huge}}},
	}
	inflight, next := s.Inflight(), s.nextPktSeq
	for _, a := range hostile {
		p := &packet.Packet{Type: packet.TypeTACK, ConnID: s.cfg.ConnID, Ack: a}
		if err := p.Sane(); err != nil {
			t.Fatalf("hostile ack must be well-formed: %v", err)
		}
		done := make(chan struct{})
		go func() {
			s.OnPacket(p)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("ack %+v still being processed after 2s", *a)
		}
		if got := s.Inflight(); got != inflight {
			t.Fatalf("ack %+v released data: inflight %d -> %d", *a, inflight, got)
		}
		if s.buf.HasMarked() {
			t.Fatalf("ack %+v marked segments lost", *a)
		}
		if got := s.OldestOutstanding(); got > s.nextPktSeq {
			t.Fatalf("oldest outstanding %d beyond next packet number %d", got, s.nextPktSeq)
		}
	}
	if s.nextPktSeq != next {
		t.Fatalf("hostile acks triggered transmissions: next packet %d -> %d", next, s.nextPktSeq)
	}
	if s.Stats.BadFeedback != len(hostile) {
		t.Fatalf("BadFeedback = %d, want %d", s.Stats.BadFeedback, len(hostile))
	}
	h.finish(t)
}

func TestLyingFeedbackDropped(t *testing.T) {
	// An optimistic ack claiming bytes never sent, and one naming a packet
	// number never minted, are both counted and dropped; an honest
	// receiver's feedback never is.
	reg := telemetry.NewRegistry()
	h := startedHarness(t, reg)
	s := h.snd
	acks := s.Stats.AcksReceived
	for _, a := range []*packet.AckInfo{
		{CumAck: s.SentSeq() + 1},
		{CumAck: s.CumAcked(), LargestPktSeq: s.nextPktSeq, CumPktSeq: s.nextPktSeq},
	} {
		s.OnPacket(&packet.Packet{Type: packet.TypeTACK, ConnID: s.cfg.ConnID, Ack: a})
	}
	if s.Stats.AcksReceived != acks {
		t.Fatalf("lying acks processed: AcksReceived %d -> %d", acks, s.Stats.AcksReceived)
	}
	if got := reg.Counter("snd.bad_feedback").Value(); got != 2 || s.Stats.BadFeedback != 2 {
		t.Fatalf("snd.bad_feedback = %d, Stats.BadFeedback = %d, want 2", got, s.Stats.BadFeedback)
	}
	h.finish(t)
	if s.Stats.BadFeedback != 2 {
		t.Fatalf("honest feedback dropped: BadFeedback = %d after the transfer", s.Stats.BadFeedback)
	}
}
