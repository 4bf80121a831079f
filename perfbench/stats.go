package main

import "sort"

// tailBeyond is how many samples the reported tail percentile must leave
// above it, so the tail value rests on more than a handful of outliers.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest empirical percentile of a sample that still leaves
// at least tailBeyond samples above it, but never below the median.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"` // 100·(rank+1)/n of the value
	Samples    int     `json:"samples"`    // n, the sample count it came from
	Beyond     int     `json:"beyond"`     // samples above the value's rank
}

// tailOf sorts xs (a copy) and returns the sample at rank n-1-tailBeyond,
// the highest rank with tailBeyond samples beyond it. A tail below the
// median says nothing, so with fewer than 2·tailBeyond+1 samples the rank
// is raised to n/2, the (upper) median.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	k := max(n-1-tailBeyond, n/2)
	return tail{Value: s[k], Percentile: 100 * float64(k+1) / float64(n), Samples: n, Beyond: n - 1 - k}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
