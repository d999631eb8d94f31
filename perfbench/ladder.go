package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/transport"
)

// The layer ladder times single public functions in isolation on fixed
// shapes, reporting ns/op and allocs/op: the codec on a full-MSS
// DATA+STREAM packet and a rich TACK, sim.Timer re-arming, and a batchio
// WriteBatch+ReadBatch of 32 datagrams over a loopback socket pair.

const (
	ladderTarget = 10 * time.Millisecond // per timed repetition
	ladderReps   = 5
	ladderBatch  = 32
)

// timeOp runs fn in repetitions of a calibrated count and returns the
// median ns/op and the mean allocs/op; ok is false if fn failed.
func timeOp(fn func() bool) (ns, allocs float64, ok bool) {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			if !fn() {
				return 0, 0, false
			}
		}
		if time.Since(t) >= ladderTarget || n >= 1<<24 {
			break
		}
		n *= 4
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var per []float64
	for r := 0; r < ladderReps; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			if !fn() {
				return 0, 0, false
			}
		}
		per = append(per, float64(time.Since(t))/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	// Round allocs/op to hundredths: the odd allocation by another
	// goroutine during the timing is not the function's.
	allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n*ladderReps)
	return median(per), math.Round(allocs*100) / 100, true
}

// ladderPackets returns the ladder's fixed packet shapes.
func ladderPackets() (data, tack *packet.Packet) {
	data = &packet.Packet{
		Type: packet.TypeData, ConnID: 7, PktSeq: 123456, SentAt: 42 * sim.Millisecond,
		Seq: 1 << 30, Payload: make([]byte, transport.DefaultPayload),
		HasStream: true, StreamID: 5, StreamOff: 1 << 20, OldestPktSeq: 123000,
	}
	ack := &packet.AckInfo{
		CumAck: 1 << 30, CumPktSeq: 123000, LargestPktSeq: 123456, AckSeq: 999,
		Window: 1 << 20, AckDelay: 3 * sim.Millisecond, EchoDeparture: 40 * sim.Millisecond,
		DeliveryRate: 100e6, LossRatePermille: 12, ReportedThrough: 123400,
	}
	for i := uint64(0); i < 16; i++ {
		ack.AckedBlocks = append(ack.AckedBlocks, seqspace.Range{Lo: 123100 + i*20, Hi: 123110 + i*20})
		ack.UnackedBlocks = append(ack.UnackedBlocks, seqspace.Range{Lo: 123110 + i*20, Hi: 123120 + i*20})
	}
	tack = &packet.Packet{Type: packet.TypeTACK, ConnID: 7, PktSeq: 555, SentAt: 43 * sim.Millisecond, Ack: ack}
	return data, tack
}

// runLadder returns the ladder metrics, keyed by per-layer metric name.
func runLadder() map[string]float64 {
	out := map[string]float64{}
	put := func(name string, ns, allocs float64, ok bool) {
		if !ok {
			fmt.Fprintf(os.Stderr, "ladder: %s failed\n", name)
			return
		}
		out[name+"_ns"] = ns
		out[name+"_allocs"] = allocs
	}

	data, tack := ladderPackets()
	buf := make([]byte, 0, 2048)
	put(ladderTime("packet.encode_data", func() bool {
		buf = data.AppendMarshal(buf[:0])
		return true
	}))
	dataWire := data.Marshal()
	tackWire := tack.Marshal()
	var p packet.Packet
	put(ladderTime("packet.decode_data", func() bool { return packet.DecodeInto(&p, dataWire) == nil }))
	put(ladderTime("packet.decode_tack", func() bool { return packet.DecodeInto(&p, tackWire) == nil }))

	loop := sim.NewLoop(1)
	tm := sim.NewTimer(loop, func() {})
	i := 0
	put(ladderTime("sim.timer_reset", func() bool {
		i++
		tm.Reset(sim.Time(i))
		if i%1024 == 0 {
			loop.Run() // drain the cancelled events re-arming left behind
		}
		return true
	}))

	put(batchLadder())
	return out
}

func ladderTime(name string, fn func() bool) (string, float64, float64, bool) {
	ns, allocs, ok := timeOp(fn)
	return name, ns, allocs, ok
}

// batchLadder times WriteBatch of 32 datagrams and the ReadBatch calls
// that receive them, over a loopback socket pair.
func batchLadder() (string, float64, float64, bool) {
	const name = "batchio.batch32"
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	a, err := net.ListenUDP("udp4", lo)
	if err != nil {
		return name, 0, 0, false
	}
	defer a.Close()
	b, err := net.ListenUDP("udp4", lo)
	if err != nil {
		return name, 0, 0, false
	}
	defer b.Close()
	if err := b.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return name, 0, 0, false
	}
	w := batchio.New(a).NewWriter(ladderBatch)
	r := batchio.New(b).NewReader(ladderBatch, 2048)
	ms := make([]batchio.Message, ladderBatch)
	for i := range ms {
		ms[i] = batchio.Message{Buf: make([]byte, 1200), Addr: b.LocalAddr().(*net.UDPAddr)}
	}
	return ladderTime(name, func() bool {
		if _, err := w.WriteBatch(ms); err != nil {
			return false
		}
		for got := 0; got < ladderBatch; {
			rd, err := r.ReadBatch()
			if err != nil {
				return false
			}
			got += len(rd)
		}
		return true
	})
}
