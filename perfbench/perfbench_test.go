package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileIQM(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g", got)
	}
	if got := percentile(xs, 90); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %g", got)
	}
	if got := iqm([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("iqm = %g, want 3.5 (outliers trimmed)", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || finite(math.NaN()) != 0 || finite(math.Inf(1)) != 0 {
		t.Error("empty or non-finite values are not handled")
	}
}

func TestOpLogWork(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	l := &opLog{ops: []op{
		{start: at(0), end: at(100)},                 // wholly in the first slice
		{start: at(900), end: at(1100)},              // half in each slice
		{start: at(1200), end: at(1300), fail: true}, // failed: no work
	}}
	if got := l.work(at(0), at(1000)); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("work in slice 1 = %g, want 1.5", got)
	}
	if got := l.work(at(1000), at(2000)); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("work in slice 2 = %g, want 0.5", got)
	}
	if n := len(l.window(at(1000), at(2000))); n != 2 {
		t.Errorf("window holds %d ops, want 2 (ended in it, failed included)", n)
	}
}

// pb is a minimal protobuf writer for synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// syntheticProfile encodes a profile whose samples have the given stacks
// (innermost first) and values; the first stack's leaf is an inlined
// frame, to exercise multi-line locations.
func syntheticProfile(t *testing.T, stacks [][]string, values []int64) []byte {
	t.Helper()
	var p pb
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	funcs := map[string]uint64{}
	var locID uint64
	for i, st := range stacks {
		var locs []uint64
		for j := 0; j < len(st); j++ {
			var loc pb
			locID++
			loc.varint(1, locID)
			n := 1
			if i == 0 && j == 0 && len(st) > 1 {
				n = 2 // st[0] inlined into st[1]
			}
			for _, fn := range st[j : j+n] {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pb
					f.varint(1, id)
					f.varint(2, str(fn))
					p.bytes(5, f.b)
				}
				var line pb
				line.varint(1, id)
				loc.bytes(4, line.b)
			}
			j += n - 1
			p.bytes(4, loc.b)
			locs = append(locs, locID)
		}
		var s pb
		s.packed(1, locs...)
		s.packed(2, uint64(values[i]), uint64(values[i])*10_000_000)
		p.bytes(2, s.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributionSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// memmove inlined under the stream mux: counts as stream.
		{"runtime.memmove", "github.com/tacktp/tack/internal/stream.(*SendMux).OnFrameAcked", "github.com/tacktp/tack/internal/transport.(*Sender).onAck", "runtime.goexit"},
		// a syscall under batchio counts as batchio, and as a syscall.
		{"internal/runtime/syscall.Syscall6", "syscall.Syscall6", "github.com/tacktp/tack/internal/batchio.(*Writer).writeMmsg", "github.com/tacktp/tack/internal/endpoint.(*shard).flush", "runtime.goexit"},
		// the shard tick: endpoint, and cumulative tick share.
		{"github.com/tacktp/tack/internal/endpoint.(*shard).detectAnomalies", "github.com/tacktp/tack/internal/endpoint.(*shard).tick", "runtime.goexit"},
		// the frame CRC lives in the endpoint package but is packet work.
		{"hash/crc32.ieeeCLMUL", "github.com/tacktp/tack/internal/endpoint.appendFrameCRC", "runtime.goexit"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"},
		{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"},
		{"bytes.Equal", "main.(*bulkInst).reader", "runtime.goexit"},
		{"runtime.nanotime1", "runtime.goexit"},
	}
	values := []int64{50, 20, 10, 5, 6, 4, 3, 2}
	samples, err := parseProfile(syntheticProfile(t, stacks, values), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[0].stack; len(got) != 4 || got[0] != "runtime.memmove" || got[1] != stacks[0][1] {
		t.Fatalf("inlined stack decoded as %v", got)
	}
	a := attribute(samples)
	want := map[string]int64{"stream": 50, "batchio": 20, "endpoint": 10, "packet": 5,
		bucketGC: 6, bucketSched: 4, bucketBench: 3, bucketOther: 2}
	for b, n := range want {
		if a.buckets[b] != n {
			t.Errorf("bucket %s = %d, want %d (all: %v)", b, a.buckets[b], n, a.buckets)
		}
	}
	if a.total != 100 || a.tick != 10 || a.syscall != 20 {
		t.Errorf("total %d tick %d syscall %d, want 100 10 20", a.total, a.tick, a.syscall)
	}
	if got := a.attributed(); math.Abs(got-0.95) > 1e-9 {
		t.Errorf("attributed = %g, want 0.95", got)
	}
	// The value index selects the column: index 1 is ten million times
	// index 0 in this profile.
	if s, err := parseProfile(syntheticProfile(t, stacks[:1], values[:1]), 1); err != nil || s[0].value != 500_000_000 {
		t.Errorf("value index 1: %v, %v", s, err)
	}
}

// TestWorkloadsSmoke sets every workload up, measures it for a second and
// checks that it did verified work without a failure.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			s, err := setUp(workloads[name], &setupCtx{seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			m := measure(s.inst, time.Second, nil)
			m.addChecks(s.inst.close(true))
			if m.failed != 0 || m.ops == 0 || len(m.lat) == 0 {
				t.Fatalf("failed %d of %d, work %g, %d latencies", m.failed, m.attempted, m.ops, len(m.lat))
			}
			if s.heapKBPerConn <= 0 || s.setup <= 0 {
				t.Errorf("heap %g KiB/conn, setup %v", s.heapKBPerConn, s.setup)
			}
		})
	}
}

// TestTracedSmoke runs a short traced run and checks that every per-layer
// metric is reported and the artifacts are written.
func TestTracedSmoke(t *testing.T) {
	dir := t.TempDir()
	res, err := runTraced(workloads["wlan-sim"], 3, 2*time.Second, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("correct %v, %d metrics, want %d", res.Correct, len(res.Metrics), len(perLayer))
	}
	if res.Metrics["sim.events_per_mb"].Value <= 0 || res.Metrics["transport.acks_per_mb_legacy"].Value <= res.Metrics["transport.acks_per_mb_tack"].Value {
		t.Errorf("sim counters: %+v", res.Metrics)
	}
	for _, f := range []string{"cpu.pprof", "heap.pprof", "spans.jsonl", "result.json", "counters.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the result lines carry
// exactly the metrics, with the units, that BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []decl, got map[string]metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, %d declared", kind, len(got), len(want))
		}
		for _, d := range want {
			if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s declared in %s, reported %+v (present %v)", kind, d.Name, d.Unit, m, ok)
			}
		}
	}
	res, err := runEndToEnd(workloads["wlan-sim"], 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	check("end_to_end", spec.EndToEnd, res.Metrics)
	layer := map[string]metric{}
	for _, p := range perLayer {
		layer[p.name] = metric{Unit: p.unit}
	}
	check("per_layer", spec.PerLayer, layer)
}
