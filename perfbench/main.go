// Command perfbench is the repository benchmark: it drives the public
// surfaces of the TACK stack (endpoint Listen/Dial, streams, topo paths and
// the sim loop) through four named workloads, checks every output, and
// prints one JSON result line.
//
//	go run . --workload bulk --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// a separate traced run reports per-layer metrics (CPU/heap profile
// attribution, spans around public calls, exported counters and a layer
// ladder) and writes its raw profiles and spans to --out. See NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 5

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for profiles, spans and the result document")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d", *name, *seed))
		res, err = runTraced(w, *seed, window, dir)
	} else {
		res, err = runEndToEnd(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEndToEnd sets the workload up setupRepeats times (reporting the
// median), measures the last instance for the whole window, and reports
// the end-to-end metrics.
func runEndToEnd(w *workload, seed int64, window time.Duration) (*result, error) {
	var setups, heaps []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		s, err := setUp(w, &setupCtx{seed: seed})
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		heaps = append(heaps, s.heapKBPerConn)
		if i < setupRepeats-1 {
			s.inst.close(false)
			continue
		}
		inst = s.inst
	}
	m := measure(inst, window, nil)
	m.addChecks(inst.close(true))

	fail := 0.0
	if m.attempted > 0 {
		fail = float64(m.failed) / float64(m.attempted)
	}
	tailPct := tailPercentile(len(m.lat))
	fmt.Fprintf(os.Stderr, "%s: setup %.3fs ops %.0f (%.2f/s) cpu %.3f ms/op heap %.2f KiB/conn fail_ratio %g\n",
		w.name, median(setups), m.ops, m.rate, m.cpuPerOp, median(heaps), fail)
	fmt.Fprintf(os.Stderr, "  latency ms (n=%d): p50 %.3f p90 %.3f p95 %.3f p99 %.3f; tail with %d beyond: p%g\n",
		len(m.lat), percentile(m.lat, 50), percentile(m.lat, 90), percentile(m.lat, 95), percentile(m.lat, 99),
		minBeyond, tailPct)
	fmt.Fprintf(os.Stderr, "  slice rates %.1f\n", m.slices)
	for _, k := range sortedKeys(m.extra) {
		fmt.Fprintf(os.Stderr, "  %s = %g\n", k, m.extra[k])
	}
	res := &result{
		Correct:   m.failed == 0 && len(m.lat) > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"ops_per_s":        {m.rate, "1/s"},
			"cpu_ms_per_op":    {m.cpuPerOp, "ms"},
			"op_p50_ms":        {percentile(m.lat, 50), "ms"},
			"heap_kb_per_conn": {median(heaps), "KiB"},
		},
	}
	for k, v := range res.Metrics {
		res.Metrics[k] = metric{finite(v.Value), v.Unit}
	}
	return res, nil
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
