package stream

import (
	"bytes"
	"testing"

	"github.com/tacktp/tack/internal/core"
)

// sendHarness drives one stream of a send mux and checks every byte it
// reads back against pattern.
type sendHarness struct {
	t *testing.T
	m *SendMux
	s *SendStream
}

func newSendHarness(t *testing.T, sendBuffer int) *sendHarness {
	t.Helper()
	m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 4, SendBuffer: sendBuffer}, SendDeps{})
	grantAll(m)
	s, err := m.Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &sendHarness{t: t, m: m, s: s}
}

// write appends n pattern bytes at the stream's write end.
func (h *sendHarness) write(n int) {
	h.t.Helper()
	b := make([]byte, n)
	pattern(h.s.ID(), h.s.end, b)
	if got, err := h.s.Write(b); err != nil || got != n {
		h.t.Fatalf("Write(%d) = %d, %v", n, got, err)
	}
}

// frame commits the next frame of at most max bytes and checks its payload.
func (h *sendHarness) frame(max int) Frame {
	h.t.Helper()
	fr, ok := h.m.NextFrame(0, max)
	if !ok {
		h.t.Fatal("nothing to frame")
	}
	h.check("NextFrame", fr.Off, fr.Data, len(fr.Data))
	return fr
}

// retx re-materializes [off, off+n) as a retransmission would.
func (h *sendHarness) retx(off uint64, n int) {
	h.t.Helper()
	h.check("FrameData", off, h.m.FrameData(h.s.ID(), off, n), n)
}

func (h *sendHarness) check(what string, off uint64, got []byte, n int) {
	h.t.Helper()
	want := make([]byte, n)
	pattern(h.s.ID(), off, want)
	if !bytes.Equal(got, want) {
		h.t.Fatalf("%s [%d,+%d) returned wrong bytes", what, off, n)
	}
}

func (h *sendHarness) ack(off uint64, n int, fin bool) {
	h.m.OnFrameAcked(0, h.s.ID(), off, n, fin)
}

// TestSendRingWrapAround drives write/frame/ack cycles whose offsets cross
// a 1000-byte ring's boundary many times: retransmits straddling the wrap,
// growth while the contents are wrapped, out-of-order selective acks
// followed by the head, and a zero-length FIN after a wrap.
func TestSendRingWrapAround(t *testing.T) {
	const size = 1000
	h := newSendHarness(t, size)

	// Growth while wrapped: a 400-byte write allocates the floor, acking
	// its head lets the next write wrap, and the write after that
	// outgrows the floor with the contents still wrapped.
	h.write(400)
	if got := len(h.s.data.buf); got != minSendRing {
		t.Fatalf("first ring = %d bytes, want the %d-byte floor", got, minSendRing)
	}
	h.frame(300)
	h.frame(300)
	h.ack(0, 300, false)
	h.write(300) // [400,700) wraps the 512-byte ring
	h.retx(300, 400)
	h.write(300) // needs 700 > 512: regrow while wrapped
	if got := len(h.s.data.buf); got != size {
		t.Fatalf("regrown ring = %d bytes, want the %d-byte cap", got, size)
	}
	h.retx(300, 700)
	for h.s.next < h.s.end {
		h.frame(250)
	}
	h.ack(300, 700, false)

	straddles := 0
	for i := 0; i < 200; i++ {
		if room := size - h.s.BufferedBytes(); room > 0 {
			h.write(1 + (i*37)%room)
		}
		var frames []Frame
		for h.s.next < h.s.end {
			frames = append(frames, h.frame(1+(i*53)%300))
		}
		for _, fr := range frames {
			if fr.Off%size+uint64(len(fr.Data)) > size {
				straddles++
			}
			h.retx(fr.Off, len(fr.Data))
		}
		// Selective acks out of order: everything but the head, newest
		// first. Retention holds until the head arrives.
		buffered := h.s.BufferedBytes()
		for j := len(frames) - 1; j >= 1; j-- {
			h.ack(frames[j].Off, len(frames[j].Data), false)
		}
		if got := h.s.BufferedBytes(); got != buffered {
			t.Fatalf("cycle %d: selective acks trimmed retention %d -> %d", i, buffered, got)
		}
		h.ack(frames[0].Off, len(frames[0].Data), false)
		if got := h.s.BufferedBytes(); got != 0 {
			t.Fatalf("cycle %d: %d bytes retained after the head ack", i, got)
		}
	}
	if straddles == 0 {
		t.Fatal("no retransmit straddled the ring boundary")
	}
	if h.s.end%size == 0 {
		t.Fatalf("stream ends on the ring boundary (%d): FIN would not follow a wrap", h.s.end)
	}

	h.s.Close()
	fin := h.frame(1500)
	if !fin.FIN || len(fin.Data) != 0 || fin.Off != h.s.end {
		t.Fatalf("FIN frame after wrap: fin=%v len=%d off=%d end=%d", fin.FIN, len(fin.Data), fin.Off, h.s.end)
	}
	h.ack(fin.Off, 0, true)
	if !h.s.Done() {
		t.Fatal("stream not done after the FIN ack")
	}
}

// TestSendRingReleasedOnRetire checks a finished stream pins no buffer:
// the ring is dropped as soon as the FIN is acknowledged.
func TestSendRingReleasedOnRetire(t *testing.T) {
	h := newSendHarness(t, 1<<16)
	h.write(5000)
	h.s.Close()
	var last Frame
	for !last.FIN {
		last = h.frame(1500)
	}
	h.ack(0, 5000, false)
	if h.s.data.buf == nil {
		t.Fatal("ring released before the FIN was acknowledged")
	}
	h.ack(last.Off+uint64(len(last.Data)), 0, true)
	if !h.s.Done() {
		t.Fatal("stream not done")
	}
	if h.s.data.buf != nil {
		t.Fatalf("retired stream still holds a %d-byte ring", len(h.s.data.buf))
	}
	if got := h.s.BufferedBytes(); got != 0 {
		t.Fatalf("retired stream reports %d buffered bytes", got)
	}
}

// TestSendRingReleasedOnMuxClose checks mux teardown frees every ring it
// can: a stream with nothing in flight drops its ring (and its unframed
// bytes) at once, while a stream with framed, unacknowledged bytes keeps
// them retransmittable until they are acknowledged.
func TestSendRingReleasedOnMuxClose(t *testing.T) {
	h := newSendHarness(t, 1<<16)
	h.write(4000)
	h.frame(1500)
	h.frame(1500) // [3000,4000) stays unframed
	idle, _ := h.m.Open(Options{})
	idle.Write(make([]byte, 3000)) // written, never framed
	h.m.Close(nil)

	if idle.data.buf != nil || idle.BufferedBytes() != 0 {
		t.Fatalf("idle stream kept its ring across Close: %d bytes, %d buffered", len(idle.data.buf), idle.BufferedBytes())
	}
	if h.s.data.buf == nil {
		t.Fatal("stream with bytes in flight dropped its ring at Close")
	}
	h.retx(1000, 2000)
	h.ack(1500, 1500, false)
	h.retx(0, 1500)
	h.ack(0, 1500, false)
	if h.s.data.buf != nil || h.s.BufferedBytes() != 0 {
		t.Fatalf("drained stream kept its ring after Close: %d bytes, %d buffered", len(h.s.data.buf), h.s.BufferedBytes())
	}
	if b := h.m.FrameData(h.s.ID(), 3000, 1000); b != nil {
		t.Fatal("FrameData served a dropped range")
	}
}

// TestOnFrameAckedAllocFree checks the per-segment ack path allocates
// nothing, in order or with a hole filled later.
func TestOnFrameAckedAllocFree(t *testing.T) {
	const mss = core.MSS
	h := newSendHarness(t, 512*mss)
	h.write(512 * mss)
	for h.s.next < h.s.end {
		h.m.NextFrame(0, mss)
	}
	off := uint64(0)
	inOrder := testing.AllocsPerRun(100, func() {
		h.ack(off, mss, false)
		off += mss
	})
	outOfOrder := testing.AllocsPerRun(100, func() {
		h.ack(off+mss, mss, false)
		h.ack(off, mss, false)
		off += 2 * mss
	})
	if inOrder != 0 || outOfOrder != 0 {
		t.Fatalf("OnFrameAcked allocs/op: in order %v, out of order %v; want 0", inOrder, outOfOrder)
	}
}

// BenchmarkSendMuxAckAdvance measures one MSS through the stream mux with
// the send buffer full: Write, NextFrame, then OnFrameAcked of the oldest
// MSS. Its cost must not grow with SendBuffer.
func BenchmarkSendMuxAckAdvance(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"256KiB", 256 << 10}, {"4MiB", 4 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			const mss = core.MSS
			m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 1, SendBuffer: c.size}, SendDeps{})
			grantAll(m)
			s, _ := m.Open(Options{})
			s.Write(make([]byte, c.size-mss))
			for {
				if _, ok := m.NextFrame(0, mss); !ok {
					break
				}
			}
			payload := make([]byte, mss)
			off := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Write(payload)
				m.NextFrame(0, mss)
				m.OnFrameAcked(0, s.ID(), off, mss, false)
				off += mss
			}
		})
	}
}

// FuzzSendMux runs random writes, frames, in-order and out-of-order acks
// and retransmit reads against one stream, checking every payload and
// every BufferedBytes value against a plain model: the whole written
// stream plus a per-byte acknowledged flag.
func FuzzSendMux(f *testing.F) {
	f.Add(uint16(1000), []byte{0, 255, 1, 40, 1, 90, 2, 1, 4, 0, 3, 0, 0, 200, 1, 255, 1, 255, 2, 3, 3, 0})
	f.Add(uint16(100), []byte{0, 60, 1, 7, 1, 7, 3, 0, 0, 80, 1, 50, 4, 1, 2, 0, 1, 255, 3, 0, 3, 0})
	f.Add(uint16(4000), []byte{0, 255, 0, 255, 1, 200, 1, 200, 1, 200, 2, 2, 2, 1, 4, 0, 3, 0, 0, 255})
	f.Fuzz(func(t *testing.T, bufSize uint16, ops []byte) {
		size := int(bufSize)%4096 + 1
		m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 1, SendBuffer: size}, SendDeps{})
		grantAll(m)
		s, _ := m.Open(Options{})
		var (
			stream   []byte // every byte written
			ackedAt  []bool // per byte: acknowledged
			base     int    // contiguous acknowledgment point
			framed   int    // first never-framed offset
			inflight []Frame
		)
		check := func(what string, off uint64, got []byte, n int) {
			t.Helper()
			if want := stream[off : off+uint64(n)]; !bytes.Equal(got, want) {
				t.Fatalf("%s [%d,+%d): got %x, want %x", what, off, n, got, want)
			}
		}
		ack := func(i int) {
			fr := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			m.OnFrameAcked(0, s.ID(), fr.Off, len(fr.Data), fr.FIN)
			for j := range fr.Data {
				ackedAt[int(fr.Off)+j] = true
			}
			for base < len(stream) && ackedAt[base] {
				base++
			}
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0]%5, int(ops[1])
			switch op {
			case 0: // write up to the free room
				n := min(1+arg*size/256, size-(len(stream)-base))
				if n <= 0 {
					continue
				}
				b := make([]byte, n)
				for j := range b {
					b[j] = byte(len(stream)+j) ^ byte(arg)
				}
				if got, err := s.Write(b); err != nil || got != n {
					t.Fatalf("Write(%d) = %d, %v", n, got, err)
				}
				stream = append(stream, b...)
				ackedAt = append(ackedAt, make([]bool, n)...)
			case 1: // frame
				fr, ok := m.NextFrame(0, 1+arg*size/256)
				if ok != (framed < len(stream)) {
					t.Fatalf("NextFrame ok=%v with %d of %d bytes framed", ok, framed, len(stream))
				}
				if !ok {
					continue
				}
				if fr.Off != uint64(framed) {
					t.Fatalf("frame at %d, want %d", fr.Off, framed)
				}
				check("NextFrame", fr.Off, fr.Data, len(fr.Data))
				framed += len(fr.Data)
				inflight = append(inflight, fr)
			case 2: // ack any in-flight frame
				if len(inflight) > 0 {
					ack(arg % len(inflight))
				}
			case 3: // ack the oldest in-flight frame
				if len(inflight) > 0 {
					ack(0)
				}
			case 4: // retransmit read of an in-flight frame
				if len(inflight) > 0 {
					fr := inflight[arg%len(inflight)]
					check("FrameData", fr.Off, m.FrameData(s.ID(), fr.Off, len(fr.Data)), len(fr.Data))
				}
			}
			if got, want := s.BufferedBytes(), len(stream)-base; got != want {
				t.Fatalf("BufferedBytes = %d, want %d", got, want)
			}
		}

		// Drain: close, frame the rest and the FIN, ack it all.
		s.Close()
		for {
			fr, ok := m.NextFrame(0, size)
			if !ok {
				break
			}
			check("NextFrame", fr.Off, fr.Data, len(fr.Data))
			inflight = append(inflight, fr)
		}
		for len(inflight) > 0 {
			ack(len(inflight) - 1)
		}
		if !s.Done() || s.data.buf != nil {
			t.Fatalf("drained stream: done=%v ring=%d bytes", s.Done(), len(s.data.buf))
		}
	})
}
