package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"isrl/internal/obs"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs; 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so the spreads printed here match the ones computed
// from the printed values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sample is everything read from the process at one instant of a run.
type sample struct {
	reg    map[string]any
	cpu    time.Duration // process user+sys
	gcCPU  float64       // cumulative GC CPU seconds
	allCPU float64       // cumulative CPU seconds as the runtime counts them
	numGC  uint64
}

func takeSample() sample {
	s := sample{reg: obs.Default().Snapshot()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	rm := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(rm)
	if rm[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = rm[0].Value.Float64()
	}
	if rm[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = rm[1].Value.Float64()
	}
	if rm[2].Value.Kind() == metrics.KindUint64 {
		s.numGC = rm[2].Value.Uint64()
	}
	return s
}

// delta is the change of the registry between two samples.
type delta struct{ a, b sample }

// count is the change of a counter or gauge.
func (d delta) count(name string) float64 {
	av, _ := d.a.reg[name].(int64)
	bv, _ := d.b.reg[name].(int64)
	return float64(bv - av)
}

// histSum is the change of a histogram's observation sum.
func (d delta) histSum(name string) float64 {
	av, _ := d.a.reg[name].(obs.HistogramSnapshot)
	bv, _ := d.b.reg[name].(obs.HistogramSnapshot)
	return bv.Sum - av.Sum
}

// histQuantile estimates the q-quantile of the observations a histogram
// with the given bucket bounds received between the samples,
// interpolating inside the bucket as obs does.
func (d delta) histQuantile(name string, bounds []float64, q float64) float64 {
	av, _ := d.a.reg[name].(obs.HistogramSnapshot)
	bv, _ := d.b.reg[name].(obs.HistogramSnapshot)
	before := make(map[float64]int64, len(av.Buckets))
	for _, b := range av.Buckets {
		before[b.Le] = b.Count
	}
	var total int64
	for _, b := range bv.Buckets {
		total += b.Count - before[b.Le]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for _, b := range bv.Buckets {
		n := b.Count - before[b.Le]
		if n <= 0 {
			continue
		}
		if cum+float64(n) >= target {
			i := sort.SearchFloat64s(bounds, b.Le)
			lower, upper := 0.0, b.Le
			if i > 0 {
				lower = bounds[i-1]
			}
			if math.IsInf(upper, 1) {
				upper = bv.Max
			}
			return lower + (target-cum)/float64(n)*(upper-lower)
		}
		cum += float64(n)
	}
	return bv.Max
}

func (d delta) cpu() time.Duration { return d.b.cpu - d.a.cpu }

// gcFraction is the share of the runtime's CPU time spent in GC.
func (d delta) gcFraction() float64 {
	return ratio(d.b.gcCPU-d.a.gcCPU, d.b.allCPU-d.a.allCPU)
}

func (d delta) gcRuns() float64 { return float64(d.b.numGC - d.a.numGC) }

// sum adds the changes of several counters.
func (d delta) sum(names ...string) float64 {
	var s float64
	for _, n := range names {
		s += d.count(n)
	}
	return s
}

// liveHeapMiB is the heap the collector last marked live: the service's
// memory under load, read without forcing a collection.
func liveHeapMiB() float64 {
	rm := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(rm)
	if rm[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(rm[0].Value.Uint64()) / (1 << 20)
}
