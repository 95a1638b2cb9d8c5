package stats

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("Percentile reordered its input")
	}
	if Percentile(nil, 0.5) != 0 || Median([]float64{7}) != 7 {
		t.Error("empty or single-sample percentile wrong")
	}
}

func TestWindowRates(t *testing.T) {
	ms := time.Millisecond
	// Three requests of 2 queries 10ms apart, then a pause, then three more.
	var spans []Span
	for i := 0; i < 3; i++ {
		spans = append(spans, Span{Start: time.Duration(i) * 10 * ms, End: time.Duration(i+1) * 10 * ms, Queries: 2})
	}
	for i := 0; i < 3; i++ {
		spans = append(spans, Span{Start: time.Second + time.Duration(i)*20*ms, End: time.Second + time.Duration(i+1)*20*ms, Queries: 2})
	}
	got := WindowRates(spans, 3)
	want := []float64{6 / 0.03, 6 / 0.06}
	if len(got) != 2 || math.Abs(got[0]-want[0]) > 1e-9 || math.Abs(got[1]-want[1]) > 1e-9 {
		t.Fatalf("WindowRates = %v, want %v (the pause between windows is not counted)", got, want)
	}
	// A trailing partial window is dropped; fewer spans than a window make one.
	if got := WindowRates(spans[:4], 3); len(got) != 1 {
		t.Fatalf("partial window kept: %v", got)
	}
	if got := WindowRates(spans[:2], 3); len(got) != 1 || math.Abs(got[0]-4/0.02) > 1e-9 {
		t.Fatalf("short run = %v, want one window", got)
	}
}

func TestWindowPercentile(t *testing.T) {
	us := time.Microsecond
	// Three windows of two requests; the last window stalls.
	lat := []time.Duration{10 * us, 20 * us, 12 * us, 22 * us, 900 * us, 1000 * us}
	var spans []Span
	var at time.Duration
	for _, l := range lat {
		spans = append(spans, Span{Start: at, End: at + l, Queries: 1})
		at += l
	}
	if got := WindowPercentile(spans, 2, 1); got != 22 {
		t.Fatalf("median of window maxima = %v, want 22", got)
	}
	spans[1].Queries = 0 // a failed request has no latency
	if got := WindowPercentile(spans, 2, 1); got != 22 {
		t.Fatalf("with a failed request = %v, want 22", got)
	}
}
