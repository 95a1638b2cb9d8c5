// Package stats holds the order statistics the benchmark reports.
package stats

import (
	"slices"
	"time"
)

// Percentile returns the p-quantile (0 <= p <= 1) of xs, interpolating
// linearly between the two closest ranks. It returns 0 for no samples.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// Median is Percentile(xs, 0.5).
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Span is one timed request: when it was sent, when its last byte arrived,
// and how many queries it carried.
type Span struct {
	Start, End time.Duration
	Queries    int
}

// WindowRates splits spans, in send order, into consecutive windows of n
// requests and returns each window's queries per second over the time from
// its first send to its last byte. A trailing window shorter than n is
// dropped unless it is the only one, so every rate covers the same count.
func WindowRates(spans []Span, n int) []float64 {
	if n < 1 || len(spans) < n {
		n = len(spans)
	}
	var rates []float64
	for lo := 0; n > 0 && lo+n <= len(spans); lo += n {
		w := spans[lo : lo+n]
		q := 0
		for _, s := range w {
			q += s.Queries
		}
		if d := w[len(w)-1].End - w[0].Start; d > 0 {
			rates = append(rates, float64(q)/d.Seconds())
		}
	}
	return rates
}

// WindowPercentile is the median, over the same windows as WindowRates, of
// each window's p-quantile request latency in microseconds. Failed
// requests (no queries answered) are left out. A host stall that covers
// fewer than half the windows does not move it.
func WindowPercentile(spans []Span, n int, p float64) float64 {
	if n < 1 || len(spans) < n {
		n = len(spans)
	}
	var per []float64
	for lo := 0; n > 0 && lo+n <= len(spans); lo += n {
		var lat []float64
		for _, s := range spans[lo : lo+n] {
			if s.Queries > 0 {
				lat = append(lat, float64(s.End-s.Start)/float64(time.Microsecond))
			}
		}
		if len(lat) > 0 {
			per = append(per, Percentile(lat, p))
		}
	}
	return Median(per)
}
