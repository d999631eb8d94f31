package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// Shared pieces of the three socket workloads: endpoint configuration,
// seeded payload patterns, and the loopback endpoint pair.

const (
	mib = 1 << 20
	// ioTimeout bounds every blocking wait the load makes, so a wedged
	// connection shows up as a failed operation instead of a hung run.
	ioTimeout = 10 * time.Second
	// stopWait bounds how long close waits for the load goroutines once
	// the endpoints are closed.
	stopWait = 10 * time.Second
)

// endpointConfig is the default endpoint configuration with TACK streams
// enabled (the flight recorder stays on, as by default). reg is non-nil
// only in traced runs; keepalive is set by the idle swarm's dialer.
func endpointConfig(reg *telemetry.Registry, keepalive time.Duration) endpoint.Config {
	scfg := stream.Default()
	return endpoint.Config{
		Transport:         transport.Config{Mode: transport.ModeTACK, Streams: &scfg, Metrics: reg},
		Metrics:           reg,
		KeepaliveInterval: keepalive,
	}
}

// pattern returns n seeded pseudo-random bytes.
func pattern(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// endpointPair is a listening server endpoint and a client endpoint that
// dials it, both on loopback.
type endpointPair struct {
	srv, cli *endpoint.Endpoint
	addr     string
}

func listenPair(sc *setupCtx, keepalive time.Duration) (*endpointPair, error) {
	srv, err := endpoint.Listen("127.0.0.1:0", endpointConfig(sc.reg, 0))
	if err != nil {
		return nil, fmt.Errorf("listen server: %w", err)
	}
	cli, err := endpoint.Listen("127.0.0.1:0", endpointConfig(sc.reg, keepalive))
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen client: %w", err)
	}
	return &endpointPair{srv: srv, cli: cli, addr: srv.LocalAddr().String()}, nil
}

// dialAccept dials one connection and accepts its server half.
func (p *endpointPair) dialAccept() (client, server *endpoint.Conn, err error) {
	c, err := p.cli.Dial(p.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("dial: %w", err)
	}
	s, err := p.srv.AcceptTimeout(ioTimeout)
	if err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("accept: %w", err)
	}
	return c, s, nil
}

// connPair is the client and server half of one connection.
type connPair struct{ c, s *endpoint.Conn }

func (cp connPair) close() {
	cp.c.Close()
	cp.s.Close()
}

// heapPairs is how many idle pairs bulk and short dial to measure the heap
// per connection: with a single pair, a pooled 64 KiB buffer that happens
// to be live at one of the two measurements would double the figure.
const heapPairs = 32

// dialMeasured dials n connections between the set-up's two heap
// measurements and returns them established and idle.
func (p *endpointPair) dialMeasured(sc *setupCtx, n int) ([]connPair, error) {
	sc.heapBase()
	var pairs []connPair
	for i := 0; i < n; i++ {
		c, s, err := p.dialAccept()
		if err != nil {
			for _, cp := range pairs {
				cp.close()
			}
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
		pairs = append(pairs, connPair{c, s})
	}
	sc.heapMark(2 * n)
	return pairs, nil
}

// openConns is how many connections both endpoints hold.
func (p *endpointPair) openConns() float64 {
	return float64(p.srv.ConnCount() + p.cli.ConnCount())
}

func (p *endpointPair) close() {
	p.cli.Close()
	p.srv.Close()
}

// waitTimeout waits for wg, giving up after d.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(d):
		return errors.New("load goroutines did not stop")
	}
}

// errStopped reports an operation cut short because the run is stopping.
var errStopped = errors.New("stopped")

// stopper is a once-closed stop signal.
type stopper struct {
	ch   chan struct{}
	once sync.Once
}

func newStopper() *stopper { return &stopper{ch: make(chan struct{})} }

func (s *stopper) stop() { s.once.Do(func() { close(s.ch) }) }

func (s *stopper) stopped() bool {
	select {
	case <-s.ch:
		return true
	default:
		return false
	}
}
