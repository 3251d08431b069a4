package mathx

import (
	"math"

	"github.com/hunter-cdb/hunter/internal/parallel"
)

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
// left centered but unscaled. Columns are independent, so the column loop
// fans out over internal/parallel above the work cutoff with results
// bit-identical to the serial pass; each chunk must cover mulChunkFlops
// of column work before fanning out, so paper-scale matrices (500×63)
// stay serial instead of paying handoff for sub-100µs chunks. The
// per-column statistics run directly over the matrix column — same
// element order and arithmetic as the former copy-then-Mean/StdDev pass,
// without the per-chunk column buffer.
func Standardize(m *Matrix) (means, stds []float64) {
	means = make([]float64, m.Cols)
	stds = make([]float64, m.Cols)
	if m.Rows == 0 {
		return means, stds // zero stats, like the empty-column Mean/StdDev
	}
	colFlops := 6 * m.Rows
	grain := m.Cols
	if colFlops > 0 && m.Cols*colFlops >= mulChunkFlops {
		grain = (mulChunkFlops + colFlops - 1) / colFlops
	}
	parallel.For(m.Cols, grain, func(lo, hi int) {
		for j := lo; j < hi; j++ {
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
	})
	return means, stds
}
