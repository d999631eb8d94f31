package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/tacktp/tack/internal/mac"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/topo"
	"github.com/tacktp/tack/internal/transport"
)

// wlan-sim: no sockets. An op builds two fresh hybrid paths (an 802.11n
// hop plus a 200 Mbit/s, 10 ms one-way, 4 MiB-queue WAN hop with
// Gilbert-Elliott burst loss on the data direction) and runs one object
// over each: a TACK arm (TACK mode, BBR, rich TACKs) and a legacy-BBR arm,
// stepping the sim.Loop until Sender.Done(). Sub-seeds cycle through
// simSubSeeds values derived from the seed, so every sub-seed is re-run
// and its digest checked for determinism. An op's latency is the pair's
// wall time.

const (
	simObject   = 4 * mib
	simSubSeeds = 16
	// simHorizon bounds an arm's virtual time; an arm not done by then
	// fails.
	simHorizon = 120 * sim.Second
)

func init() {
	register(&workload{name: "wlan-sim", setup: setupSim})
}

func tackArm() transport.Config {
	return transport.Config{Mode: transport.ModeTACK, CC: "bbr", RichTACK: true}
}

func legacyArm() transport.Config {
	return transport.Config{Mode: transport.ModeLegacy, CC: "bbr"}
}

// arm is one flow over a freshly built hybrid path.
type arm struct {
	loop   *sim.Loop
	flow   *topo.Flow
	medium *mac.Medium
	fwd    *netem.Link
	rev    *netem.Link
	path   *topo.Path
}

func buildArm(seed int64, cfg transport.Config) (*arm, error) {
	loop := sim.NewLoop(seed)
	path, medium, fwd, rev := topo.HybridPath(loop,
		topo.WLANConfig{Standard: phy.Std80211n},
		topo.WANConfig{
			RateBps:    200e6,
			OWD:        10 * sim.Millisecond,
			QueueBytes: 4 << 20,
			Impair:     netem.Impairments{GE: netem.GilbertElliott{PEnterBad: 0.002, PExitBad: 0.3}},
		})
	cfg.ConnID = 1
	cfg.TransferBytes = simObject
	flow, err := topo.NewFlow(loop, cfg, path)
	if err != nil {
		return nil, fmt.Errorf("new flow: %w", err)
	}
	return &arm{loop: loop, flow: flow, medium: medium, fwd: fwd, rev: rev, path: path}, nil
}

// armResult is what one arm run produced.
type armResult struct {
	vtime   sim.Time // virtual completion time
	fired   uint64   // events executed
	snd     transport.SenderStats
	rcv     transport.ReceiverStats
	busy    sim.Time
	collide sim.Time
	drops   int
	done    bool
	deliv   int64
}

// digest is the determinism fingerprint of an arm.
type digest struct {
	vtime sim.Time
	fired uint64
	acks  int
}

func (r armResult) digest() digest { return digest{r.vtime, r.fired, r.rcv.AcksSent()} }

func (r armResult) check() error {
	if !r.done {
		return fmt.Errorf("not done after %v virtual", r.vtime)
	}
	if r.deliv != simObject {
		return fmt.Errorf("delivered %d of %d bytes", r.deliv, simObject)
	}
	return nil
}

// goodputMbps is the arm's virtual goodput.
func (r armResult) goodputMbps() float64 { return float64(simObject) * 8 / r.vtime.Seconds() / 1e6 }

// simSpans accumulates per-packet self times in a traced run. It is owned
// by the load goroutine.
type simSpans struct {
	stepTotal, sndSelf, rcvSelf time.Duration
	handlers                    time.Duration // inside any wrapped hook, outermost only
	child                       time.Duration // inside wrapped sends
	sndPkts, rcvPkts, events    int64
	inDeliver                   bool
}

// instrument wraps the path's delivery and send hooks with timers: the
// self time of Sender.OnPacket (DeliverA) and Receiver.OnPacket (DeliverB)
// excludes the path sends they trigger. Deliveries come from loop events
// and never nest.
func (a *arm) instrument(sp *simSpans) {
	wrapDeliver := func(next func(*packet.Packet), self *time.Duration, n *int64) func(*packet.Packet) {
		return func(p *packet.Packet) {
			c0 := sp.child
			sp.inDeliver = true
			t := time.Now()
			next(p)
			d := time.Since(t)
			sp.inDeliver = false
			*self += d - (sp.child - c0)
			sp.handlers += d
			*n++
		}
	}
	wrapSend := func(next func(*packet.Packet)) func(*packet.Packet) {
		return func(p *packet.Packet) {
			t := time.Now()
			next(p)
			d := time.Since(t)
			sp.child += d
			if !sp.inDeliver {
				sp.handlers += d
			}
		}
	}
	a.path.DeliverA = wrapDeliver(a.path.DeliverA, &sp.sndSelf, &sp.sndPkts)
	a.path.DeliverB = wrapDeliver(a.path.DeliverB, &sp.rcvSelf, &sp.rcvPkts)
	a.path.SendA = wrapSend(a.path.SendA)
	a.path.SendB = wrapSend(a.path.SendB)
}

// run starts the flow and steps the loop until the sender is done.
func (a *arm) run(sp *simSpans) armResult {
	a.flow.Start()
	for !a.flow.Sender.Done() && a.loop.Now() < simHorizon {
		if sp == nil {
			if !a.loop.Step() {
				break
			}
			continue
		}
		t := time.Now()
		ok := a.loop.Step()
		sp.stepTotal += time.Since(t)
		if !ok {
			break
		}
		sp.events++
	}
	return armResult{
		vtime:   a.loop.Now(),
		fired:   a.loop.Fired(),
		snd:     a.flow.Sender.Stats,
		rcv:     a.flow.Receiver.Stats,
		busy:    a.medium.BusyTime(),
		collide: a.medium.CollisionTime(),
		drops:   a.fwd.Dropped + a.rev.Dropped,
		done:    a.flow.Sender.Done(),
		deliv:   a.flow.Receiver.Delivered(),
	}
}

func runArm(seed int64, cfg transport.Config, sp *simSpans) (armResult, error) {
	a, err := buildArm(seed, cfg)
	if err != nil {
		return armResult{}, err
	}
	if sp != nil {
		a.instrument(sp)
	}
	return a.run(sp), nil
}

// pairRec is one op: a TACK arm and a legacy arm on the same sub-seed.
type pairRec struct {
	end       time.Time
	tack, leg armResult
	spans     simSpans
	traced    bool
	fail      bool
}

type simInst struct {
	lg   opLog
	seed int64
	stop *stopper
	wg   sync.WaitGroup

	mu      sync.Mutex
	recs    []pairRec
	digests [simSubSeeds][2]digest
	seen    [simSubSeeds]bool
}

func setupSim(sc *setupCtx) (instance, error) {
	in := &simInst{seed: sc.seed, stop: newStopper()}
	// Heap per connection: one arm's path and both halves of its flow.
	sc.heapBase()
	a, err := buildArm(in.subSeed(0), tackArm())
	if err != nil {
		return nil, err
	}
	sc.heapMark(2)
	t := time.Now()
	first := a.run(nil)
	if err := in.finishPair(0, t, first, nil); err != nil {
		return nil, fmt.Errorf("wlan-sim warm-up: %w", err)
	}
	in.wg.Add(1)
	go in.load()
	return in, nil
}

func (in *simInst) subSeed(j int) int64 { return in.seed*1000 + int64(j) }

func (in *simInst) log() *opLog { return &in.lg }

func (in *simInst) load() {
	defer in.wg.Done()
	for i := 1; !in.stop.stopped(); i++ {
		j := i % simSubSeeds
		t := time.Now()
		var sp *simSpans
		if activeTracer.Load() != nil {
			sp = &simSpans{}
		}
		tack, err := runArm(in.subSeed(j), tackArm(), sp)
		if err != nil {
			in.lg.add(t, true)
			continue
		}
		if err := in.finishPair(j, t, tack, sp); err != nil {
			fmt.Fprintf(os.Stderr, "wlan-sim: sub-seed %d: %v\n", in.subSeed(j), err)
		}
	}
}

// finishPair runs the legacy arm of sub-seed j (the TACK arm already ran),
// checks both arms and their digests, and logs the op.
func (in *simInst) finishPair(j int, t time.Time, tack armResult, sp *simSpans) error {
	leg, err := runArm(in.subSeed(j), legacyArm(), sp)
	if err == nil {
		err = in.checkPair(j, tack, leg)
	}
	rec := pairRec{end: time.Now(), tack: tack, leg: leg, traced: sp != nil, fail: err != nil}
	if sp != nil {
		rec.spans = *sp
	}
	in.mu.Lock()
	in.recs = append(in.recs, rec)
	in.mu.Unlock()
	in.lg.add(t, err != nil)
	traceSpan("sim.pair", t)
	return err
}

func (in *simInst) checkPair(j int, tack, leg armResult) error {
	if err := tack.check(); err != nil {
		return fmt.Errorf("tack arm: %w", err)
	}
	if err := leg.check(); err != nil {
		return fmt.Errorf("legacy arm: %w", err)
	}
	d := [2]digest{tack.digest(), leg.digest()}
	if !in.seen[j] {
		in.seen[j], in.digests[j] = true, d
		return nil
	}
	if d != in.digests[j] {
		return errors.New("re-run digest differs: the simulation is not deterministic")
	}
	return nil
}

func (in *simInst) close(check bool) (checks, failed int64) {
	in.stop.stop()
	if err := waitTimeout(&in.wg, 3*stopWait); err != nil {
		return 1, 1
	}
	return 0, 0
}

// window returns the ops that ended in the measurement window.
func (in *simInst) window(m *measurement) []pairRec {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []pairRec
	for _, r := range in.recs {
		if !r.fail && !r.end.Before(m.t0) && r.end.Before(m.t1) {
			out = append(out, r)
		}
	}
	return out
}

func (in *simInst) report(m *measurement) {
	var tack, leg float64
	recs := in.window(m)
	for _, r := range recs {
		tack += r.tack.goodputMbps()
		leg += r.leg.goodputMbps()
	}
	n := float64(len(recs))
	m.extra["sim_mb_per_s"] = 2 * m.rate * simObject / 1e6
	m.extra["sim_goodput_mbps"] = tack / n
	m.extra["sim_gain_pct"] = (tack/leg - 1) * 100
}

func (in *simInst) layerMetrics(m *measurement, tr *tracer, out map[string]float64) {
	var (
		events, tackAcks, legAcks, data, retx, rto, tlp int64
		drops                                           int64
		busy, collide                                   sim.Time
		sp                                              simSpans
		pairs                                           float64
	)
	for _, r := range in.window(m) {
		pairs++
		for _, a := range []armResult{r.tack, r.leg} {
			events += int64(a.fired)
			data += int64(a.snd.DataPackets)
			retx += int64(a.snd.Retransmits)
			rto += int64(a.snd.Timeouts)
			tlp += int64(a.snd.TLPProbes)
			busy += a.busy
			collide += a.collide
			drops += int64(a.drops)
		}
		tackAcks += int64(r.tack.rcv.AcksSent())
		legAcks += int64(r.leg.rcv.AcksSent())
		if r.traced {
			sp.stepTotal += r.spans.stepTotal
			sp.sndSelf += r.spans.sndSelf
			sp.rcvSelf += r.spans.rcvSelf
			sp.handlers += r.spans.handlers
			sp.sndPkts += r.spans.sndPkts
			sp.rcvPkts += r.spans.rcvPkts
			sp.events += r.spans.events
		}
	}
	armMB := pairs * simObject / 1e6
	out["sim.events_per_mb"] = float64(events) / (2 * armMB)
	out["sim.tack_goodput_mbps"] = m.extra["sim_goodput_mbps"]
	out["sim.gain_pct"] = m.extra["sim_gain_pct"]
	out["transport.acks_per_mb_tack"] = float64(tackAcks) / armMB
	out["transport.acks_per_mb_legacy"] = float64(legAcks) / armMB
	out["transport.retx_ratio"] = ratio(float64(retx), float64(data))
	out["transport.rto_count"] = float64(rto)
	out["transport.tlp_probes"] = float64(tlp)
	out["mac.airtime_ms_per_mb"] = float64(busy) / 1e6 / (2 * armMB)
	out["mac.collision_share"] = ratio(float64(collide), float64(busy))
	out["netem.drops_per_mb"] = float64(drops) / (2 * armMB)
	out["transport.snd_ns_per_ack"] = ratio(float64(sp.sndSelf), float64(sp.sndPkts))
	out["transport.rcv_ns_per_pkt"] = ratio(float64(sp.rcvSelf), float64(sp.rcvPkts))
	out["sim.ns_per_event"] = ratio(float64(sp.stepTotal-sp.handlers), float64(sp.events))
	out["runtime.allocs_per_pkt"] = ratio(float64(m.rt1.mallocs-m.rt0.mallocs), float64(data+tackAcks+legAcks))
}
