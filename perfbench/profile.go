package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes, enough to attribute samples to layers: each sample becomes its
// stack of function names (innermost first, inlined frames expanded) and
// one of its values.

// profSample is one profile sample.
type profSample struct {
	stack []string // function names, innermost first
	value int64
}

// parseProfile decodes a gzipped pprof profile and returns its samples,
// taking the value at index vi of each sample (CPU profiles: 0 = sample
// count; heap profiles: 3 = in-use bytes).
func parseProfile(data []byte, vi int) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch {
		case num == 2 && wt == 2: // sample
			var s rawSample
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wt, v, b)
				case 2:
					for _, x := range appendPacked(nil, wt, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wt == 2: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch {
				case num == 1 && wt == 0:
					id = v
				case num == 4 && wt == 2: // line
					return eachField(b, func(num int, wt int, v uint64, _ []byte) error {
						if num == 1 && wt == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case num == 5 && wt == 2: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wt int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wt == 0:
					id = v
				case num == 2 && wt == 0:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case num == 6 && wt == 2: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample has too few values")
		}
		ps := profSample{value: s.values[vi]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendPacked appends a repeated varint field given either packed
// (wire type 2) or as a single value (wire type 0).
func appendPacked(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks the protobuf fields of b. For varint fields v holds the
// value; for length-delimited fields b holds the bytes.
func eachField(b []byte, fn func(num int, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// Attribution buckets besides the repository layers.
const (
	bucketGC    = "runtime.gc"
	bucketSched = "runtime.sched"
	bucketBench = "bench"
	bucketOther = "other"
)

const repoPrefix = "github.com/tacktp/tack/"

// layerOf maps a repository package (its path below the module) to the
// layer it belongs to; "" for packages that are not part of any layer.
var layerOf = map[string]string{
	"internal/endpoint":    "endpoint",
	"internal/debugserver": "endpoint",
	"":                     "endpoint", // the tack facade
	"internal/batchio":     "batchio",
	"internal/packet":      "packet",
	"internal/transport":   "transport",
	"internal/core":        "transport",
	"internal/ackpolicy":   "transport",
	"internal/buffer":      "transport",
	"internal/rtt":         "transport",
	"internal/rate":        "transport",
	"internal/pacing":      "transport",
	"internal/cc":          "transport",
	"internal/seqspace":    "transport",
	"internal/stream":      "stream",
	"internal/fec":         "stream",
	"internal/sim":         "sim",
	"internal/topo":        "sim",
	"internal/mac":         "mac",
	"internal/phy":         "mac",
	"internal/netem":       "netem",
	"internal/telemetry":   "telemetry",
	"internal/stats":       "telemetry",
}

// layers are the named layers, in report order.
var layers = []string{"endpoint", "batchio", "packet", "transport", "stream", "sim", "mac", "netem", "telemetry"}

// repoPackage returns the package path below the module of a function
// name such as github.com/tacktp/tack/internal/stream.(*SendMux).Write.
func repoPackage(fn string) (string, bool) {
	if !strings.HasPrefix(fn, repoPrefix) {
		if strings.HasPrefix(fn, "github.com/tacktp/tack.") {
			return "", true
		}
		return "", false
	}
	rest := fn[len(repoPrefix):]
	slash := strings.LastIndex(rest, "/")
	dot := strings.Index(rest[slash+1:], ".")
	if dot < 0 {
		return rest, true
	}
	return rest[:slash+1+dot], true
}

// classify assigns a sample to the layer of its innermost repository
// frame (the frame CRC in the endpoint package counts as packet); samples
// with no repository frame go to the GC, scheduler, bench or other
// bucket.
func classify(stack []string) string {
	for _, fn := range stack {
		pkg, ok := repoPackage(fn)
		if !ok {
			continue
		}
		if pkg == "internal/endpoint" && strings.Contains(fn, "FrameCRC") {
			return "packet"
		}
		if l, ok := layerOf[pkg]; ok {
			return l
		}
		return bucketOther
	}
	for _, fn := range stack {
		for _, g := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.GC"} {
			if strings.HasPrefix(fn, g) {
				return bucketGC
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "runtime/pprof.") {
			return bucketBench
		}
	}
	for _, fn := range stack {
		for _, s := range []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goexit0", "runtime.mstart", "runtime.sysmon", "runtime.mcall", "runtime.gopark", "runtime.netpoll", "runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.notesleep", "runtime.timerproc", "runtime.exitsyscall", "runtime.morestack", "runtime.newproc"} {
			if strings.HasPrefix(fn, s) {
				return bucketSched
			}
		}
	}
	return bucketOther
}

// isSyscall reports whether fn is a system call entry.
func isSyscall(fn string) bool {
	return strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
		strings.HasPrefix(fn, "runtime/internal/syscall.")
}

// attribution is a profile's samples per bucket.
type attribution struct {
	total   int64
	buckets map[string]int64
	tick    int64 // samples with (*shard).tick anywhere on the stack
	syscall int64 // batchio samples inside a system call
}

func attribute(samples []profSample) attribution {
	a := attribution{buckets: map[string]int64{}}
	for _, s := range samples {
		b := classify(s.stack)
		a.total += s.value
		a.buckets[b] += s.value
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, "(*shard).tick") {
				a.tick += s.value
				break
			}
		}
		if b == "batchio" {
			for _, fn := range s.stack {
				if isSyscall(fn) {
					a.syscall += s.value
					break
				}
			}
		}
	}
	return a
}

// share is bucket b's fraction of all samples.
func (a attribution) share(b string) float64 { return ratio(float64(a.buckets[b]), float64(a.total)) }

// attributed is the fraction of samples in a named layer, GC or scheduler.
func (a attribution) attributed() float64 {
	n := a.buckets[bucketGC] + a.buckets[bucketSched]
	for _, l := range layers {
		n += a.buckets[l]
	}
	return ratio(float64(n), float64(a.total))
}
