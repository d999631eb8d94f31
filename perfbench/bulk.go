package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/tacktp/tack/internal/endpoint"
)

// bulk: one long-lived TACK connection over loopback UDP with streams.
// A writer goroutine sends successive 16 MiB objects, each on a new
// stream, in 64 KiB SendStream.Write calls from a seeded pattern; a reader
// goroutine accepts each stream and compares every byte against the
// pattern. Closed loop. An op is one verified MiB; its latency runs from
// the Write that starts the MiB to the Read that verifies its last byte.

const (
	bulkObject = 16 * mib
	bulkWrite  = 64 << 10
	// bulkShift bounds the per-object offset into the pattern, so every
	// object carries different bytes.
	bulkShift = 64 << 10
)

func init() {
	register(&workload{name: "bulk", setup: setupBulk})
}

type bulkInst struct {
	lg   opLog
	pair *endpointPair
	pat  []byte
	stop *stopper
	wg   sync.WaitGroup

	mu      sync.Mutex
	started []time.Time    // Write start of each global MiB
	objects map[uint32]int // stream ID -> object index
	warm    chan struct{}  // closed once object 0 is verified
	warmErr chan error     // first load error during warm-up
}

func setupBulk(sc *setupCtx) (instance, error) {
	in := &bulkInst{
		pat:     pattern(sc.seed, bulkObject+bulkShift),
		stop:    newStopper(),
		objects: map[uint32]int{},
		warm:    make(chan struct{}),
		warmErr: make(chan error, 2),
	}
	pair, err := listenPair(sc, 0)
	if err != nil {
		return nil, err
	}
	in.pair = pair
	pairs, err := pair.dialMeasured(sc, heapPairs)
	if err != nil {
		pair.close()
		return nil, err
	}
	for _, cp := range pairs[1:] {
		cp.close()
	}
	cc, sconn := pairs[0].c, pairs[0].s

	in.wg.Add(2)
	go in.writer(cc)
	go in.reader(sconn)
	select {
	case <-in.warm:
		return in, nil
	case err := <-in.warmErr:
		in.close(false)
		return nil, fmt.Errorf("bulk warm-up: %w", err)
	case <-time.After(2 * ioTimeout):
		in.close(false)
		return nil, errors.New("bulk warm-up timed out")
	}
}

func (in *bulkInst) log() *opLog { return &in.lg }

// object returns the bytes of object k.
func (in *bulkInst) object(k int) []byte {
	off := (k * 7919) % bulkShift
	return in.pat[off : off+bulkObject]
}

// loadErr reports a load failure: during warm-up it aborts set-up,
// afterwards it is a failed op (unless the run is stopping).
func (in *bulkInst) loadErr(start time.Time, err error) {
	if in.stop.stopped() {
		return
	}
	select {
	case <-in.warm:
		in.lg.add(start, true)
	default:
		in.warmErr <- err
	}
}

func (in *bulkInst) writer(c *endpoint.Conn) {
	defer in.wg.Done()
	for k := 0; !in.stop.stopped(); k++ {
		t := time.Now()
		ss, err := c.OpenStream()
		if err != nil {
			in.loadErr(t, fmt.Errorf("open stream: %w", err))
			return
		}
		in.mu.Lock()
		in.objects[ss.ID()] = k
		in.mu.Unlock()
		obj := in.object(k)
		for off := 0; off < len(obj); off += bulkWrite {
			t := time.Now()
			if off%mib == 0 {
				in.mu.Lock()
				in.started = append(in.started, t)
				in.mu.Unlock()
			}
			_, err := ss.Write(obj[off : off+bulkWrite])
			traceSpan("stream.write", t)
			if err != nil {
				in.loadErr(t, fmt.Errorf("write: %w", err))
				return
			}
		}
		if err := ss.Close(); err != nil {
			in.loadErr(t, fmt.Errorf("close stream: %w", err))
			return
		}
	}
}

func (in *bulkInst) startOf(m int) time.Time {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.started[m]
}

func (in *bulkInst) reader(c *endpoint.Conn) {
	defer in.wg.Done()
	buf := make([]byte, bulkWrite)
	for n := 0; !in.stop.stopped(); n++ {
		t := time.Now()
		rs, err := c.AcceptStream(ioTimeout)
		if err != nil {
			in.loadErr(t, fmt.Errorf("accept stream: %w", err))
			return
		}
		in.mu.Lock()
		k, ok := in.objects[rs.ID()]
		delete(in.objects, rs.ID())
		in.mu.Unlock()
		if !ok {
			in.loadErr(t, fmt.Errorf("stream %d was never opened", rs.ID()))
			return
		}
		obj := in.object(k)
		base := k * (bulkObject / mib)
		off, logged := 0, 0 // bytes verified; MiBs logged
		for {
			t := time.Now()
			nr, err := rs.Read(buf)
			traceSpan("stream.read", t)
			if nr > 0 {
				if off+nr > len(obj) || !bytes.Equal(buf[:nr], obj[off:off+nr]) {
					in.loadErr(in.startOf(base+off/mib), fmt.Errorf("object %d: mismatch at offset %d", k, off))
					return
				}
				off += nr
				for ; logged < off/mib; logged++ {
					in.lg.add(in.startOf(base+logged), false)
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				in.loadErr(t, fmt.Errorf("object %d read: %w", k, err))
				return
			}
		}
		if off != len(obj) {
			in.loadErr(t, fmt.Errorf("object %d: %d of %d bytes", k, off, len(obj)))
			return
		}
		if k == 0 {
			close(in.warm)
		}
	}
}

func (in *bulkInst) close(check bool) (checks, failed int64) {
	in.stop.stop()
	in.pair.close()
	if err := waitTimeout(&in.wg, stopWait); err != nil {
		return 1, 1
	}
	return 0, 0
}

func (in *bulkInst) report(m *measurement) {
	m.extra["open_conns_end"] = in.pair.openConns()
	m.extra["goodput_mb_s"] = m.rate * mib / 1e6
	m.extra["cpu_ms_per_mb"] = m.cpuPerOp * 1e6 / mib
}

func (in *bulkInst) layerMetrics(m *measurement, tr *tracer, out map[string]float64) {
	out["stream.write_blocked_share"] = tr.total("stream.write").Seconds() / m.wall.Seconds()
	out["stream.read_wait_share"] = tr.total("stream.read").Seconds() / m.wall.Seconds()
}
