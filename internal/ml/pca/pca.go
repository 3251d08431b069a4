// Package pca implements principal component analysis for metric
// compression (§3.2.1): the Search Space Optimizer projects the 63-metric
// state vectors onto the leading components covering ≥90% of variance,
// shrinking the DRL state space.
package pca

import (
	"fmt"
	"math"

	"github.com/hunter-cdb/hunter/internal/mathx"
)

// Model is a fitted PCA transform.
type Model struct {
	means      []float64
	stds       []float64
	components *mathx.Matrix // v×u, row i = i-th principal axis
	variances  []float64     // eigenvalues, descending, all u of them
	inDim      int
	outDim     int
}

// Fit computes a PCA over the rows of X (one observation per row),
// standardizing columns first (metric magnitudes differ by orders of
// magnitude) and keeping the smallest number of components whose
// cumulative variance fraction reaches varTarget (e.g. 0.90). A maxDim of
// 0 means unbounded.
func Fit(rows [][]float64, varTarget float64, maxDim int) (*Model, error) {
	if len(rows) < 2 {
		return nil, fmt.Errorf("pca: need at least 2 observations, got %d", len(rows))
	}
	if varTarget <= 0 || varTarget > 1 {
		return nil, fmt.Errorf("pca: variance target %g outside (0,1]", varTarget)
	}
	x := mathx.FromRows(rows)
	means, stds := mathx.Standardize(x)
	n, u := x.Rows, x.Cols

	// Covariance = XᵀX / (n-1) over standardized data. Gram computes the
	// symmetric product directly (upper triangle only, contiguous-row dot
	// products) instead of a full transpose-then-multiply.
	cov := x.Gram()
	for i := range cov.Data {
		cov.Data[i] /= float64(n - 1)
	}
	eig, err := mathx.SymEigen(cov)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range eig.Values {
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("pca: zero total variance")
	}
	keep, cum := 0, 0.0
	for keep < u {
		if eig.Values[keep] > 0 {
			cum += eig.Values[keep]
		}
		keep++
		if cum/total >= varTarget {
			break
		}
	}
	if maxDim > 0 && keep > maxDim {
		keep = maxDim
	}
	comp := mathx.NewMatrix(keep, u)
	for i := 0; i < keep; i++ {
		copy(comp.Row(i), eig.Vectors.Row(i))
	}
	return &Model{
		means:      means,
		stds:       stds,
		components: comp,
		variances:  eig.Values,
		inDim:      u,
		outDim:     keep,
	}, nil
}

// InDim returns the input dimensionality.
func (m *Model) InDim() int { return m.inDim }

// OutDim returns the number of retained components (v in the paper).
func (m *Model) OutDim() int { return m.outDim }

// VarianceCDF returns the cumulative fraction of variance explained by the
// first k components, for k = 1..inDim — the curve of Figure 7(a).
func (m *Model) VarianceCDF() []float64 {
	var total float64
	for _, v := range m.variances {
		if v > 0 {
			total += v
		}
	}
	out := make([]float64, len(m.variances))
	cum := 0.0
	for i, v := range m.variances {
		if v > 0 {
			cum += v
		}
		if total > 0 {
			out[i] = cum / total
		}
	}
	return out
}

// Transform projects one observation onto the retained components.
func (m *Model) Transform(x []float64) ([]float64, error) {
	if len(x) != m.inDim {
		return nil, fmt.Errorf("pca: input dim %d != %d", len(x), m.inDim)
	}
	std := make([]float64, m.inDim)
	for j := range x {
		sd := m.stds[j]
		if sd == 0 {
			sd = 1
		}
		std[j] = (x[j] - m.means[j]) / sd
	}
	return m.components.MulVec(std), nil
}

// Reconstruct maps a compressed vector back to the original space
// (approximately), used by tests to bound reconstruction error.
func (m *Model) Reconstruct(z []float64) ([]float64, error) {
	if len(z) != m.outDim {
		return nil, fmt.Errorf("pca: compressed dim %d != %d", len(z), m.outDim)
	}
	out := make([]float64, m.inDim)
	for i := 0; i < m.outDim; i++ {
		row := m.components.Row(i)
		for j := 0; j < m.inDim; j++ {
			out[j] += z[i] * row[j]
		}
	}
	for j := range out {
		sd := m.stds[j]
		if sd == 0 {
			sd = 1
		}
		out[j] = out[j]*sd + m.means[j]
	}
	return out, nil
}

// ComponentOrthogonality returns the maximum absolute dot product between
// distinct retained components (should be ≈0); used by property tests.
func (m *Model) ComponentOrthogonality() float64 {
	worst := 0.0
	for i := 0; i < m.outDim; i++ {
		for j := i + 1; j < m.outDim; j++ {
			d := math.Abs(mathx.Dot(m.components.Row(i), m.components.Row(j)))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
