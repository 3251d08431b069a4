package mathx

import "math"

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v.
func StdDev(v []float64) float64 { return math.Sqrt(Variance(v)) }

// Standardize centers and scales each column of m to zero mean and unit
// variance, returning the means and standard deviations used so callers can
// apply the identical transform to new data. Columns with zero variance are
// left centered but unscaled. The per-column statistics run directly over
// the matrix column, in the same element order and arithmetic as Mean and
// StdDev on a copy of it.
func Standardize(m *Matrix) (means, stds []float64) {
	means = make([]float64, m.Cols)
	stds = make([]float64, m.Cols)
	if m.Rows == 0 {
		return means, stds // zero stats, like the empty-column Mean/StdDev
	}
	for j := 0; j < m.Cols; j++ {
		var sum float64
		for i := 0; i < m.Rows; i++ {
			sum += m.At(i, j)
		}
		mean := sum / float64(m.Rows)
		var sq float64
		for i := 0; i < m.Rows; i++ {
			d := m.At(i, j) - mean
			sq += d * d
		}
		means[j] = mean
		stds[j] = math.Sqrt(sq / float64(m.Rows))
		sd := stds[j]
		if sd == 0 {
			sd = 1
		}
		for i := 0; i < m.Rows; i++ {
			m.Set(i, j, (m.At(i, j)-mean)/sd)
		}
	}
	return means, stds
}
