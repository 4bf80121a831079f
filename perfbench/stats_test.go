package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailOf must sort
		}
		return xs
	}
	cases := []struct {
		n       int
		value   float64
		pct     float64
		beyond  int
		comment string
	}{
		{0, 0, 0, 0, "no samples"},
		{1, 1, 100, 0, "one sample is its own median"},
		{10, 6, 60, 4, "no rank leaves ten beyond: the upper median"},
		{12, 7, 100 * 7.0 / 12, 5, "rank 1 would sit below the median: the upper median"},
		{21, 11, 100 * 11.0 / 21, 10, "the median itself leaves exactly ten beyond"},
		{30, 20, 100 * 20.0 / 30, 10, "rank 19 of 30"},
		{1000, 990, 99, 10, "p99 of 1000"},
	}
	for _, c := range cases {
		got := tailOf(seq(c.n))
		if math.Abs(got.Value-c.value) > 1e-12 || math.Abs(got.Percentile-c.pct) > 1e-9 || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("%s: tailOf(n=%d) = %+v, want value %v pct %v beyond %d", c.comment, c.n, got, c.value, c.pct, c.beyond)
		}
		above := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				above++
			}
		}
		if above != got.Beyond {
			t.Errorf("n=%d: %d samples above the tail, record says %d", c.n, above, got.Beyond)
		}
	}
}

func TestDeriveSeeds(t *testing.T) {
	a, b := deriveSeeds(7), deriveSeeds(7)
	if a != b {
		t.Fatalf("seeds not deterministic: %+v vs %+v", a, b)
	}
	c := deriveSeeds(8)
	if a.Weights == c.Weights || a.Sampler == c.Sampler || a.Fault == c.Fault || a.Perm == c.Perm {
		t.Fatalf("seed 7 and 8 share a derived seed: %+v vs %+v", a, c)
	}
	graphs := map[uint64]bool{}
	for _, g := range append(a.Graphs[:], c.Graphs[:]...) {
		graphs[g] = true
	}
	if len(graphs) != 2*setupRepeats {
		t.Fatalf("set-up graph seeds repeat: %v and %v", a.Graphs, c.Graphs)
	}
	if a.Weights <= 0 || a.Sampler <= 0 || a.Fault <= 0 {
		t.Fatalf("signed seeds must be positive: %+v", a)
	}
}
