package main

import (
	"math"
	"slices"
	"sort"
)

// percentile is the nearest-rank quantile (rank ceil(q·n), 1-based) of an
// ascending slice — an order statistic that was actually observed, never an
// interpolated or bucket-midpoint value. Empty input gives 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(k, 0), n-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median averages the two middle values of an even-sized sample.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), because that is
// what the acceptance driver applies to the same numbers.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := sortedCopy(v)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median: the
// figure recorded beside every reported value and the one -compare holds
// against a metric's bound.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// reading is one reported number: per-window or per-pass values folded into
// one (see quietest), the spread of those values, and how many raw samples
// stand behind it.
type reading struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Spread float64 `json:"spread"`
}

// latencyWindow is the span, in seconds, a phase's latencies are cut into
// before a percentile is taken: 50 requests at 100 per second, 100 at 200.
const latencyWindow = 0.5

// quietest is how the latencies of a timed phase become one number. The
// samples are cut into windows of width seconds by their offset at[i]; within
// is applied to every window that holds at least half as many samples as the
// fullest, and the smallest result is reported. The recorded spread is that
// of the per-window values.
//
// The benchmark shares its host. In sizing runs the hypervisor took between 0
// and 50 % of the CPU, for seconds or for minutes at a time, and while it did
// a window's p50 rose by 15–50 % and its p95 up to fivefold; a fold that
// keeps any fixed share of the windows (median, better quartile) moved with
// it. A neighbour can only add time, so the figure reported is that of the
// window the neighbour disturbed least. A lasting change to the program moves
// every window and so moves it all the same. A stall that comes back less
// often than once a window does not: that shows in the whole-run
// client.p99_ms of the traced run.
func quietest(at, val []float64, width float64, within func([]float64) float64) reading {
	buckets := map[int][]float64{}
	fullest := 0
	for i, t := range at {
		k := int(t / width)
		buckets[k] = append(buckets[k], val[i])
		fullest = max(fullest, len(buckets[k]))
	}
	var per []float64
	for _, b := range buckets {
		if 2*len(b) >= fullest {
			per = append(per, within(b))
		}
	}
	if len(per) == 0 {
		return reading{}
	}
	return reading{Value: slices.Min(per), N: len(val), Spread: spread(per)}
}

func upperQuartile(v []float64) float64 { return percentile(sortedCopy(v), 0.75) }

func p50(v []float64) float64 { return percentile(sortedCopy(v), 0.50) }
func p95(v []float64) float64 { return percentile(sortedCopy(v), 0.95) }
func p99(v []float64) float64 { return percentile(sortedCopy(v), 0.99) }

// medianOf reports the plain median of samples that are already one value
// per repetition (scan passes, set-ups).
func medianOf(v []float64) reading {
	return reading{Value: median(v), N: len(v), Spread: spread(v)}
}
