package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// samples collects latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (q in [0,1]); NaN for an empty set.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}

// supported reports whether the q-quantile of n samples has at least
// ten samples beyond it, the minimum for a tail figure to repeat.
func supported(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func seconds(d time.Duration) float64 { return d.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tails reports the operation and read latencies of a run, each tail
// only where it has at least ten samples beyond it (else it reads 0).
// They are per-layer (ungated) metrics: on a shared 2-vCPU box their
// run-to-run spread exceeds any useful bound (see README.md).
func tails(r *run, ops, fresh, reads []float64) {
	for _, t := range []struct {
		name string
		vals []float64
		q    float64
	}{
		{"bench.op_p50_ms", ops, 0.5},
		{"bench.op_p90_ms", ops, 0.9},
		{"bench.op_p99_ms", ops, 0.99},
		{"bench.verdict_p90_ms", fresh, 0.9},
		{"bench.read_p50_ms", reads, 0.5},
		{"bench.read_p90_ms", reads, 0.9},
	} {
		if supported(len(t.vals), t.q) {
			r.layer[t.name] = quantile(t.vals, t.q)
		}
	}
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
