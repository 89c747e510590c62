package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile interpolates linearly between closest ranks (p in [0,100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles by the same "exclusive"
// method as Python's statistics.quantiles(xs, n=4), so spreads printed here
// match the ones computed over repeated runs of the benchmark.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// geomean is the geometric mean of the positive values; zero when none are.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, zero when b is zero (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perKey collects samples under a key (a query ID) in first-seen order.
type perKey struct {
	keys []string
	vals map[string][]float64
}

func newPerKey() *perKey { return &perKey{vals: map[string][]float64{}} }

func (p *perKey) add(k string, v float64) {
	if _, ok := p.vals[k]; !ok {
		p.keys = append(p.keys, k)
	}
	p.vals[k] = append(p.vals[k], v)
}

func (p *perKey) medians() map[string]float64 {
	out := make(map[string]float64, len(p.keys))
	for _, k := range p.keys {
		out[k] = median(p.vals[k])
	}
	return out
}

// geomeanOfMedians is the geometric mean over keys of each key's median.
func (p *perKey) geomeanOfMedians() float64 {
	var ms []float64
	for _, k := range p.keys {
		ms = append(ms, median(p.vals[k]))
	}
	return geomean(ms)
}

func (p *perKey) count() int {
	n := 0
	for _, v := range p.vals {
		n += len(v)
	}
	return n
}

// rtSample is a reading of the Go runtime counters the benchmark reports.
type rtSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
	heapLive   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

// settledHeap is the live heap after two forced collections (the second
// frees what the finalizers run by the first released).
func settledHeap() float64 {
	runtime.GC()
	runtime.GC()
	return readRuntime().heapLive
}

func readRuntime() rtSample {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: v(0), gcCPU: v(1), totalCPU: v(2), heapLive: v(3)}
}
