package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tacktp/tack/internal/endpoint"
)

// short: two client goroutines in a closed loop, each dialing a new
// connection, opening one stream, writing a seeded 64 KiB object and
// waiting until the server has read and verified it through EOF. The
// server accepts, reads, verifies and closes. An op is one transfer; its
// latency (completion) runs from Dial to the server's verified EOF.

const (
	shortObject  = 64 << 10
	shortClients = 2
	// shortWarm is how many transfers set-up runs before the first timed one.
	shortWarm = 64
)

func init() {
	register(&workload{name: "short", setup: setupShort})
}

type shortInst struct {
	lg    opLog
	hs    opLog // Dial durations
	pair  *endpointPair
	pat   []byte
	stop  *stopper
	wg    sync.WaitGroup // clients
	srvWG sync.WaitGroup // server accept loop and handlers
	next  atomic.Uint64
	bufs  sync.Pool

	mu      sync.Mutex
	waiting map[uint64]chan error
}

func setupShort(sc *setupCtx) (instance, error) {
	in := &shortInst{
		pat:     pattern(sc.seed, 2*shortObject),
		stop:    newStopper(),
		waiting: map[uint64]chan error{},
	}
	in.bufs.New = func() any { b := make([]byte, shortObject+1); return &b }
	pair, err := listenPair(sc, 0)
	if err != nil {
		return nil, err
	}
	in.pair = pair
	// Heap per connection: idle pairs, dialed before any transfer.
	pairs, err := pair.dialMeasured(sc, heapPairs)
	if err != nil {
		pair.close()
		return nil, err
	}
	for _, cp := range pairs {
		cp.close()
	}

	in.srvWG.Add(1)
	go in.serve()
	in.wg.Add(shortClients)
	for i := 0; i < shortClients; i++ {
		go in.client()
	}
	deadline := time.Now().Add(2 * ioTimeout)
	for {
		n, failed := in.lg.count()
		if failed > 0 {
			in.close(false)
			return nil, errors.New("short warm-up: a transfer failed")
		}
		if n >= shortWarm {
			return in, nil
		}
		if time.Now().After(deadline) {
			in.close(false)
			return nil, errors.New("short warm-up timed out")
		}
		time.Sleep(time.Millisecond)
	}
}

func (in *shortInst) log() *opLog { return &in.lg }

// body is the pattern part of transfer k, which starts with k itself.
func (in *shortInst) body(k uint64) []byte {
	off := int(k*4099) % shortObject
	return in.pat[off : off+shortObject-8]
}

func (in *shortInst) client() {
	defer in.wg.Done()
	obj := make([]byte, shortObject)
	for !in.stop.stopped() {
		k := in.next.Add(1)
		binary.LittleEndian.PutUint64(obj, k)
		copy(obj[8:], in.body(k))
		done := make(chan error, 1)
		in.mu.Lock()
		in.waiting[k] = done
		in.mu.Unlock()
		t := time.Now()
		err := in.transfer(t, obj, done)
		in.mu.Lock()
		delete(in.waiting, k)
		in.mu.Unlock()
		if in.stop.stopped() {
			return
		}
		in.lg.add(t, err != nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "short: transfer %d: %v\n", k, err)
		}
	}
}

func (in *shortInst) transfer(t time.Time, obj []byte, done chan error) error {
	c, err := in.pair.cli.Dial(in.pair.addr)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	in.hs.add(t, false)
	traceSpan("endpoint.dial", t)
	defer c.Close()
	ss, err := c.OpenStream()
	if err != nil {
		return fmt.Errorf("open stream: %w", err)
	}
	tw := time.Now()
	_, err = ss.Write(obj)
	traceSpan("stream.write", tw)
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if err := ss.Close(); err != nil {
		return fmt.Errorf("close stream: %w", err)
	}
	select {
	case err := <-done:
		return err
	case <-in.stop.ch:
		return errStopped
	case <-time.After(ioTimeout):
		return errors.New("server did not verify the object in time")
	}
}

func (in *shortInst) serve() {
	defer in.srvWG.Done()
	for {
		c, err := in.pair.srv.Accept()
		if err != nil {
			return
		}
		in.srvWG.Add(1)
		go in.handle(c)
	}
}

// handle reads one transfer through EOF, verifies it, and reports to the
// waiting client.
func (in *shortInst) handle(c *endpoint.Conn) {
	defer in.srvWG.Done()
	defer c.Close()
	rs, err := c.AcceptStream(ioTimeout)
	if err != nil {
		return
	}
	bp := in.bufs.Get().(*[]byte)
	defer in.bufs.Put(bp)
	buf := *bp
	n := 0
	tr := time.Now()
	for n < len(buf) {
		m, err := rs.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return
		}
	}
	traceSpan("stream.read", tr)
	if n < 8 {
		return
	}
	k := binary.LittleEndian.Uint64(buf)
	in.mu.Lock()
	done := in.waiting[k]
	in.mu.Unlock()
	if done == nil {
		return
	}
	if n != shortObject || !bytes.Equal(buf[8:n], in.body(k)) {
		done <- fmt.Errorf("transfer %d: server read %d bytes that do not match", k, n)
		return
	}
	done <- nil
}

func (in *shortInst) close(check bool) (checks, failed int64) {
	in.stop.stop()
	in.pair.close()
	if waitTimeout(&in.wg, stopWait) != nil || waitTimeout(&in.srvWG, stopWait) != nil {
		return 1, 1
	}
	return 0, 0
}

func (in *shortInst) report(m *measurement) {
	var hs []float64
	for _, o := range in.hs.window(m.t0, m.t1) {
		hs = append(hs, o.lat)
	}
	m.extra["handshake_p50_ms"] = percentile(hs, 50)
	m.extra["handshake_p99_ms"] = percentile(hs, 99)
	m.extra["open_conns_end"] = in.pair.openConns()
}

func (in *shortInst) layerMetrics(m *measurement, tr *tracer, out map[string]float64) {
	out["endpoint.handshake_p50_ms"] = m.extra["handshake_p50_ms"]
	out["stream.write_blocked_share"] = tr.total("stream.write").Seconds() / m.wall.Seconds()
	out["stream.read_wait_share"] = tr.total("stream.read").Seconds() / m.wall.Seconds()
}
