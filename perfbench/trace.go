package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tacktp/tack/internal/telemetry"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. Metrics a workload does not exercise read 0.
var perLayer = []struct{ name, unit string }{
	{"endpoint.cpu_share", "ratio"},
	{"endpoint.tick_share", "ratio"},
	{"endpoint.heap_b_per_conn", "B"},
	{"endpoint.handshake_retx", "count"},
	{"endpoint.drops", "count"},
	{"endpoint.open_conns_end", "count"},
	{"endpoint.handshake_p50_ms", "ms"},
	{"batchio.read_batch", "count"},
	{"batchio.write_batch", "count"},
	{"batchio.syscall_share", "ratio"},
	{"batchio.pool_miss_ratio", "ratio"},
	{"batchio.batch32_ns", "ns"},
	{"batchio.batch32_allocs", "count"},
	{"packet.cpu_share", "ratio"},
	{"packet.encode_data_ns", "ns"},
	{"packet.encode_data_allocs", "count"},
	{"packet.decode_data_ns", "ns"},
	{"packet.decode_data_allocs", "count"},
	{"packet.decode_tack_ns", "ns"},
	{"packet.decode_tack_allocs", "count"},
	{"transport.cpu_share", "ratio"},
	{"transport.snd_ns_per_ack", "ns"},
	{"transport.rcv_ns_per_pkt", "ns"},
	{"transport.acks_per_mb_tack", "1/MB"},
	{"transport.acks_per_mb_legacy", "1/MB"},
	{"transport.retx_ratio", "ratio"},
	{"transport.rto_count", "count"},
	{"transport.tlp_probes", "count"},
	{"stream.cpu_share", "ratio"},
	{"stream.write_blocked_share", "ratio"},
	{"stream.read_wait_share", "ratio"},
	{"stream.window_updates_per_mb", "1/MB"},
	{"sim.cpu_share", "ratio"},
	{"sim.events_per_mb", "1/MB"},
	{"sim.ns_per_event", "ns"},
	{"sim.timer_reset_ns", "ns"},
	{"sim.timer_reset_allocs", "count"},
	{"sim.tack_goodput_mbps", "Mbit/s"},
	{"sim.gain_pct", "%"},
	{"mac.cpu_share", "ratio"},
	{"mac.airtime_ms_per_mb", "ms/MB"},
	{"mac.collision_share", "ratio"},
	{"netem.cpu_share", "ratio"},
	{"netem.drops_per_mb", "1/MB"},
	{"telemetry.cpu_share", "ratio"},
	{"telemetry.heap_b_per_conn", "B"},
	{"runtime.allocs_per_pkt", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_share", "ratio"},
	{"runtime.sched_share", "ratio"},
	{"bench.cpu_share", "ratio"},
	{"profile.attributed_share", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.cpu_overhead_pct", "%"},
}

// maxSpans bounds the spans kept in memory; totals keep counting past it.
const maxSpans = 200000

// span is one timed call into a layer's public function.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the traced window began
	Dur   int64  `json:"dur_ns"`
}

// tracer keeps the spans of a traced window in memory.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	totals map[string]time.Duration
}

// activeTracer is the tracer of the running traced window, nil otherwise.
var activeTracer atomic.Pointer[tracer]

func newTracer() *tracer { return &tracer{totals: map[string]time.Duration{}} }

func (t *tracer) start(t0 time.Time) {
	t.t0 = t0
	activeTracer.Store(t)
}

func (t *tracer) stop() { activeTracer.Store(nil) }

// traceSpan records a span from start to now when a traced window is
// running.
func traceSpan(name string, start time.Time) {
	t := activeTracer.Load()
	if t == nil {
		return
	}
	d := time.Since(start)
	t.mu.Lock()
	t.totals[name] += d
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), Dur: int64(d)})
	}
	t.mu.Unlock()
}

func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[name]
}

// runTraced measures an untraced reference window, then sets the workload
// up again with the telemetry registry, heap profiling and spans on and
// measures a traced window under the CPU profiler; each window is half
// the run. It reports the per-layer metrics and writes the raw profiles,
// spans, counters and result to dir.
func runTraced(w *workload, seed int64, window time.Duration, dir string) (*result, error) {
	half := window / 2
	s, err := setUp(w, &setupCtx{seed: seed})
	if err != nil {
		return nil, err
	}
	ref := measure(s.inst, half, nil)
	ref.addChecks(s.inst.close(true))

	// Sample the heap finely while the traced set-up builds its
	// connections, then restore the default before the window.
	defaultRate := runtime.MemProfileRate
	runtime.MemProfileRate = 512
	var heapBase, heapMark bytes.Buffer
	heapConns := 0
	sc := &setupCtx{seed: seed, reg: telemetry.NewRegistry()}
	sc.onBase = func() { pprof.Lookup("heap").WriteTo(&heapBase, 0) }
	sc.onMark = func(conns int) {
		heapConns = conns
		pprof.Lookup("heap").WriteTo(&heapMark, 0)
		runtime.MemProfileRate = defaultRate
	}
	s, err = setUp(w, sc)
	if err != nil {
		return nil, err
	}
	snap0 := sc.reg.Snapshot()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		s.inst.close(false)
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	tr := newTracer()
	m := measure(s.inst, half, tr)
	pprof.StopCPUProfile()
	snap1 := sc.reg.Snapshot()
	m.addChecks(s.inst.close(true))
	ld := runLadder()

	out := map[string]float64{}
	counterMetrics(m, snap0, snap1, out)
	if l, ok := s.inst.(layered); ok {
		l.layerMetrics(m, tr, out)
	}
	for k, v := range ld {
		out[k] = v
	}
	cpuSamples, err := parseProfile(cpu.Bytes(), 0)
	if err != nil {
		return nil, err
	}
	a := attribute(cpuSamples)
	for _, l := range layers {
		out[l+".cpu_share"] = a.share(l)
	}
	out["endpoint.tick_share"] = ratio(float64(a.tick), float64(a.total))
	out["batchio.syscall_share"] = ratio(float64(a.syscall), float64(a.total))
	out["runtime.gc_share"] = a.share(bucketGC)
	out["runtime.sched_share"] = a.share(bucketSched)
	out["bench.cpu_share"] = a.share(bucketBench)
	out["profile.attributed_share"] = a.attributed()
	if err := heapMetrics(heapBase.Bytes(), heapMark.Bytes(), heapConns, out); err != nil {
		return nil, err
	}
	out["trace.overhead_pct"] = (ref.rate - m.rate) / ref.rate * 100
	out["trace.cpu_overhead_pct"] = (m.cpuPerOp - ref.cpuPerOp) / ref.cpuPerOp * 100

	res := &result{
		Correct:   ref.failed+m.failed == 0 && m.attempted > 0,
		Attempted: ref.attempted + m.attempted,
		Failed:    ref.failed + m.failed,
		Metrics:   map[string]metric{},
	}
	for _, p := range perLayer {
		res.Metrics[p.name] = metric{finite(out[p.name]), p.unit}
	}
	fmt.Fprintf(os.Stderr, "%s traced: %d CPU samples, %.1f%% attributed; ops/s %.2f untraced, %.2f traced\n",
		w.name, a.total, 100*a.attributed(), ref.rate, m.rate)
	if a.attributed() < 0.9 {
		fmt.Fprintf(os.Stderr, "  warning: under 90%% of CPU samples attributed (buckets %v)\n", a.buckets)
	}
	for _, k := range []string{"packet.encode_data_allocs", "packet.decode_data_allocs", "packet.decode_tack_allocs"} {
		if out[k] > 0 {
			fmt.Fprintf(os.Stderr, "  flag: %s = %g (the codec should not allocate)\n", k, out[k])
		}
	}
	if err := writeTrace(dir, res, cpu.Bytes(), heapMark.Bytes(), tr, snap0, snap1); err != nil {
		return nil, err
	}
	return res, nil
}

// counterMetrics derives per-layer metrics from the registry's counters
// over the window (socket workloads; the sim workload reads its own).
func counterMetrics(m *measurement, s0, s1 telemetry.Snapshot, out map[string]float64) {
	d := func(names ...string) float64 {
		var n int64
		for _, k := range names {
			n += s1.Counters[k] - s0.Counters[k]
		}
		return float64(n)
	}
	mean := func(h string) float64 {
		a, b := s0.Histograms[h], s1.Histograms[h]
		return ratio(b.Sum-a.Sum, float64(b.Count-a.Count))
	}
	mb := d("stream.bytes_rcvd") / 1e6
	out["endpoint.handshake_retx"] = d("ep.synack_retransmits", "snd.syn_retransmits")
	out["endpoint.drops"] = d("ep.demux_drops", "ep.accept_drops", "ep.rx_err")
	out["endpoint.open_conns_end"] = m.extra["open_conns_end"]
	out["batchio.read_batch"] = mean("ep.batch.read_size")
	out["batchio.write_batch"] = mean("ep.batch.write_size")
	out["batchio.pool_miss_ratio"] = ratio(d("ep.batch.pkt_pool_misses"), d("ep.batch.pkt_pool_gets"))
	out["transport.acks_per_mb_tack"] = ratio(d("rcv.tacks_sent", "rcv.iacks_sent"), mb)
	out["transport.retx_ratio"] = ratio(d("snd.retransmits"), d("snd.data_packets"))
	out["transport.rto_count"] = d("snd.timeouts")
	out["transport.tlp_probes"] = d("snd.tlp.probes")
	out["stream.window_updates_per_mb"] = ratio(d("stream.window_updates"), mb)
	out["runtime.allocs_per_pkt"] = ratio(float64(m.rt1.mallocs-m.rt0.mallocs), d("ep.rx_packets"))
	out["runtime.gc_cpu_share"] = ratio(m.rt1.gcCPU-m.rt0.gcCPU, (m.rt1.totalCPU-m.rt0.totalCPU)-(m.rt1.idleCPU-m.rt0.idleCPU))
}

// heapMetrics attributes the in-use heap added between the two heap
// profiles to layers, per connection held.
func heapMetrics(base, mark []byte, conns int, out map[string]float64) error {
	if conns == 0 {
		return nil
	}
	byLayer := func(b []byte) (map[string]int64, error) {
		samples, err := parseProfile(b, 3)
		if err != nil {
			return nil, err
		}
		m := map[string]int64{}
		for _, s := range samples {
			m[classify(s.stack)] += s.value
		}
		return m, nil
	}
	b0, err := byLayer(base)
	if err != nil {
		return err
	}
	b1, err := byLayer(mark)
	if err != nil {
		return err
	}
	out["endpoint.heap_b_per_conn"] = float64(b1["endpoint"]-b0["endpoint"]) / float64(conns)
	out["telemetry.heap_b_per_conn"] = float64(b1["telemetry"]-b0["telemetry"]) / float64(conns)
	return nil
}

// writeTrace writes the traced run's artifacts next to its result.
func writeTrace(dir string, res *result, cpu, heap []byte, tr *tracer, s0, s1 telemetry.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string][]byte{"cpu.pprof": cpu, "heap.pprof": heap}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	for name, v := range map[string]any{"result.json": res, "counters.json": map[string]telemetry.Snapshot{"start": s0, "end": s1}} {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
