package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// hist is a log-bucketed latency histogram: constant memory however long
// the run, so the benchmark's own samples never show up in heap_mb.
// Quantiles interpolate linearly inside a bucket (2% wide), so they keep
// all their digits instead of snapping to bucket edges.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
}

const (
	histGrowth  = 1.02
	histBuckets = 1400 // 1.02^1400 ns is far beyond any timed call
)

var logGrowth = math.Log(histGrowth)

func bucketOf(v float64) int {
	if v < 1 {
		return 0
	}
	b := int(math.Log(v) / logGrowth)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// add records one sample (any unit; timings are in nanoseconds).
func (h *hist) add(v float64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

func (h *hist) addDur(d time.Duration) { h.add(float64(d)) }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile (0..1), 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = math.Pow(histGrowth, float64(i))
			}
			hi := math.Pow(histGrowth, float64(i+1))
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return math.Pow(histGrowth, histBuckets)
}

// median of a small sample set (set-up repetitions, per-call figures).
func median(xs []float64) float64 {
	return quantileOf(xs, 0.5)
}

// quantileOf is the linear-interpolation quantile of a small sample set.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
