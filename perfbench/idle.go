package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/tacktp/tack/internal/endpoint"
)

// idle-swarm: 256 connection pairs dialed in sequence and held with
// keepalives; the datapath does almost nothing, so the shard's per-tick
// walk and per-connection state dominate. One goroutine wakes a held pair
// every idleProbeEvery, round robin, with a 16 KiB stream: an op is one
// such wake-up probe. Probes follow a fixed schedule (open loop, catching
// up after a stall), and a probe's latency runs from the time it was due
// to the server's verified EOF, so a stall also counts against the probes
// it delays. The pairs are the working set, not load concurrency.

const (
	idlePairs      = 256
	idleKeepalive  = 5 * time.Second
	idleProbeEvery = 20 * time.Millisecond
	idleProbe      = 16 << 10
)

func init() {
	register(&workload{name: "idle-swarm", setup: setupIdle})
}

type idleInst struct {
	lg    opLog
	pair  *endpointPair
	pairs []connPair
	pat   []byte
	stop  *stopper
	wg    sync.WaitGroup
}

func setupIdle(sc *setupCtx) (instance, error) {
	in := &idleInst{pat: pattern(sc.seed, 2*idleProbe), stop: newStopper()}
	pair, err := listenPair(sc, idleKeepalive)
	if err != nil {
		return nil, err
	}
	in.pair = pair
	in.pairs, err = pair.dialMeasured(sc, idlePairs)
	if err != nil {
		pair.close()
		return nil, err
	}
	in.wg.Add(1)
	go in.prober()
	return in, nil
}

func (in *idleInst) log() *opLog { return &in.lg }

func (in *idleInst) prober() {
	defer in.wg.Done()
	buf := make([]byte, idleProbe+1)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i+1) * idleProbeEvery)
		select {
		case <-in.stop.ch:
			return
		case <-time.After(time.Until(due)):
		}
		p := in.pairs[i%idlePairs]
		off := (i * 31) % idleProbe
		err := in.probe(p, in.pat[off:off+idleProbe], buf)
		if in.stop.stopped() {
			return
		}
		in.lg.add(due, err != nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "idle-swarm: probe %d: %v\n", i, err)
		}
	}
}

// probe sends want on a new stream of p and reads it back at the server.
func (in *idleInst) probe(p connPair, want, buf []byte) error {
	ss, err := p.c.OpenStream()
	if err != nil {
		return fmt.Errorf("open stream: %w", err)
	}
	if _, err := ss.Write(want); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	if err := ss.Close(); err != nil {
		return fmt.Errorf("close stream: %w", err)
	}
	rs, err := p.s.AcceptStream(ioTimeout)
	if err != nil {
		return fmt.Errorf("accept stream: %w", err)
	}
	n := 0
	for n < len(buf) {
		m, err := rs.Read(buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
	}
	if !bytes.Equal(buf[:n], want) {
		return fmt.Errorf("read %d bytes that do not match the %d sent", n, len(want))
	}
	return nil
}

// close checks that every held pair is still established on both sides
// (none reaped by the idle timeout), then tears the swarm down.
func (in *idleInst) close(check bool) (checks, failed int64) {
	in.stop.stop()
	werr := waitTimeout(&in.wg, stopWait)
	if check {
		for _, p := range in.pairs {
			for _, c := range []*endpoint.Conn{p.c, p.s} {
				checks++
				if err := heldErr(c); err != nil {
					failed++
					fmt.Fprintf(os.Stderr, "idle-swarm: conn %d: %v\n", c.ConnID(), err)
				}
			}
		}
	}
	in.pair.close()
	if werr != nil {
		checks, failed = checks+1, failed+1
	}
	return checks, failed
}

// heldErr reports why c is no longer a live, established connection.
func heldErr(c *endpoint.Conn) error {
	select {
	case <-c.Done():
		if err := c.Err(); err != nil {
			return fmt.Errorf("ended: %w", err)
		}
		return errors.New("ended")
	default:
	}
	if s := c.StateSnapshot(); s == nil || s.State != "established" {
		return errors.New("not established")
	}
	return nil
}

func (in *idleInst) report(m *measurement) {
	m.extra["idle_cpu_us_per_pair_s"] = float64(m.cpu) / 1e3 / (idlePairs * m.wall.Seconds())
	m.extra["open_conns_end"] = in.pair.openConns()
}
