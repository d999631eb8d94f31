package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/tacktp/tack/internal/telemetry"
)

// workload is one named input shape. setup builds a live instance whose
// load keeps running until close; the instance records every operation in
// its opLog so any window of it can be measured.
type workload struct {
	name  string
	setup func(sc *setupCtx) (instance, error)
}

// instance is a set-up workload with its load running.
type instance interface {
	// log is where the load records its operations.
	log() *opLog
	// close stops the load and releases everything. With check set it
	// first verifies the end state (held conns alive, load goroutines
	// stopped) and returns the checks made and how many failed.
	close(check bool) (checks, failed int64)
}

// layered is implemented by instances that contribute per-layer metrics
// in a traced run, from their spans and exported counters over the window.
type layered interface {
	layerMetrics(m *measurement, tr *tracer, out map[string]float64)
}

// reporter is implemented by instances that print workload-specific
// figures (handshake latency, virtual goodput, ...) to standard error.
type reporter interface {
	report(m *measurement)
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// setupCtx is handed to a workload's setup. It carries the seed, the
// telemetry registry (traced runs only), and the heap mark: setup calls
// heapBase before building its connections and heapMark once they are
// established and idle; the garbage collections they force are excluded
// from the set-up time.
type setupCtx struct {
	seed     int64
	reg      *telemetry.Registry
	heap0    uint64
	heapKB   float64
	excluded time.Duration
	onBase   func()
	onMark   func(conns int)
}

func (sc *setupCtx) heapBase() {
	t0 := time.Now()
	sc.heap0 = liveHeap()
	if sc.onBase != nil {
		sc.onBase()
	}
	sc.excluded += time.Since(t0)
}

func (sc *setupCtx) heapMark(conns int) {
	t0 := time.Now()
	h := liveHeap()
	sc.heapKB = (float64(h) - float64(sc.heap0)) / 1024 / float64(conns)
	if sc.onMark != nil {
		sc.onMark(conns)
	}
	sc.excluded += time.Since(t0)
}

// setUpResult is one timed set-up.
type setUpResult struct {
	inst          instance
	setup         time.Duration
	heapKBPerConn float64
}

func setUp(w *workload, sc *setupCtx) (*setUpResult, error) {
	t0 := time.Now()
	inst, err := w.setup(sc)
	if err != nil {
		return nil, err
	}
	return &setUpResult{inst: inst, setup: time.Since(t0) - sc.excluded, heapKBPerConn: sc.heapKB}, nil
}

// op is one completed (or failed) operation.
type op struct {
	start, end time.Time
	lat        float64 // ms
	fail       bool
}

// opLog collects operations from the load goroutines.
type opLog struct {
	mu  sync.Mutex
	ops []op
}

func (l *opLog) add(start time.Time, fail bool) {
	now := time.Now()
	l.mu.Lock()
	l.ops = append(l.ops, op{start: start, end: now, lat: float64(now.Sub(start)) / 1e6, fail: fail})
	l.mu.Unlock()
}

// count returns how many operations succeeded and failed so far.
func (l *opLog) count() (ok, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, o := range l.ops {
		if o.fail {
			failed++
		} else {
			ok++
		}
	}
	return ok, failed
}

// window returns the operations that ended in [t0, t1).
func (l *opLog) window(t0, t1 time.Time) []op {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []op
	for _, o := range l.ops {
		if !o.end.Before(t0) && o.end.Before(t1) {
			out = append(out, o)
		}
	}
	return out
}

// work is the successful work done in [t0, t1): each op counts for the
// share of its duration that falls inside, so work is continuous across
// slice boundaries.
func (l *opLog) work(t0, t1 time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := 0.0
	for _, o := range l.ops {
		if o.fail || !o.end.After(t0) || !o.start.Before(t1) {
			continue
		}
		d := o.end.Sub(o.start)
		if d <= 0 {
			w++
			continue
		}
		lo, hi := o.start, o.end
		if lo.Before(t0) {
			lo = t0
		}
		if hi.After(t1) {
			hi = t1
		}
		w += float64(hi.Sub(lo)) / float64(d)
	}
	return w
}

// measurement is what one window of a running instance produced.
type measurement struct {
	t0, t1 time.Time
	wall   time.Duration
	cpu    time.Duration
	ops    float64 // work done in the window (see opLog.work)
	// rate and cpuPerOp are interquartile means over one-second slices
	// of the window, so a burst of contention from outside the process
	// moves them less than it moves whole-window figures.
	rate, cpuPerOp float64
	slices         []float64 // per-slice rates
	lat            []float64
	attempted      int64
	failed         int64
	rt0, rt1       runtimeSample
	extra          map[string]float64
}

func (m *measurement) addChecks(checks, failed int64) {
	m.attempted += checks
	m.failed += failed
}

// sliceLen is the length of the slices a window is cut into.
const sliceLen = time.Second

// measure samples a running instance for d.
func measure(inst instance, d time.Duration, tr *tracer) *measurement {
	m := &measurement{extra: map[string]float64{}}
	m.rt0 = readRuntime()
	n := int(d / sliceLen)
	if n < 1 {
		n = 1
	}
	at := make([]time.Time, n+1)
	cpu := make([]time.Duration, n+1)
	cpu[0] = cpuTime()
	at[0] = time.Now()
	if tr != nil {
		tr.start(at[0])
	}
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(at[0].Add(d * time.Duration(i) / time.Duration(n))))
		at[i], cpu[i] = time.Now(), cpuTime()
	}
	if tr != nil {
		tr.stop()
	}
	m.t0, m.t1 = at[0], at[n]
	m.cpu = cpu[n] - cpu[0]
	m.rt1 = readRuntime()
	m.wall = m.t1.Sub(m.t0)
	lg := inst.log()
	m.ops = lg.work(m.t0, m.t1)
	var rates, cpus []float64
	for i := 0; i < n; i++ {
		w := lg.work(at[i], at[i+1])
		rates = append(rates, w/at[i+1].Sub(at[i]).Seconds())
		if w > 0 {
			cpus = append(cpus, float64(cpu[i+1]-cpu[i])/1e6/w)
		}
	}
	m.rate, m.cpuPerOp = iqm(rates), iqm(cpus)
	m.slices = rates
	for _, o := range lg.window(m.t0, m.t1) {
		m.attempted++
		if o.fail {
			m.failed++
			continue
		}
		m.lat = append(m.lat, o.lat)
	}
	if r, ok := inst.(reporter); ok {
		r.report(m)
	}
	return m
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces two collections (the second settles objects freed by
// finalizers and sync.Pool victim caches) and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeSample is a snapshot of the runtime counters the traced run uses.
type runtimeSample struct {
	mallocs  uint64
	gcCPU    float64
	idleCPU  float64
	totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{mallocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), idleCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64()}
}

// minBeyond is how many samples a tail percentile must leave beyond it.
const minBeyond = 10

// tailPercentile is the highest of p99, p95 and p90 that leaves at least
// minBeyond of n samples beyond it, or 0 when even p90 does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// beyond is how many of n samples lie strictly above the p-th percentile.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// percentile is the p-th percentile of xs by linear interpolation
// between closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// iqm is the interquartile mean: the mean of the middle half of xs
// (all of xs when there are fewer than four); NaN for no samples.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	s = s[q : len(s)-q]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// ratio is a/b, or 0 when b is 0 (an empty window).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps NaN and infinities (a ratio over an empty window) to 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
