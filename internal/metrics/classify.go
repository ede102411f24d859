package metrics

import "math"

// PercentileRank returns the percentage of values strictly less than v,
// i.e. the percentile standing of v within values. Returns 0 for an empty
// slice.
func PercentileRank(values []float64, v float64) float64 {
	if len(values) == 0 {
		return 0
	}
	below := 0
	for _, x := range values {
		if x < v {
			below++
		}
	}
	return 100 * float64(below) / float64(len(values))
}

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// StdDev returns the population standard deviation; 0 for fewer than two
// values.
func StdDev(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := Mean(values)
	sum := 0.0
	for _, v := range values {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(values)))
}
