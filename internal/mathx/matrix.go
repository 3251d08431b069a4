// Package mathx implements the small dense linear-algebra kernel the
// machine-learning substrates (PCA, Gaussian processes, neural networks)
// are built on. Matrices are row-major float64. Every kernel is a plain
// loop on the calling goroutine with a fixed accumulation order per
// output element, so every result is the same float64 for any
// GOMAXPROCS. Parallelism lives above this layer, in the coarse fan-outs
// over sessions, tenants and random-forest trees.
package mathx

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mathx: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mathx: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MulVec returns m·v for a column vector v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("mathx: mulvec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = Dot(m.Row(i), v)
	}
	return out
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Scale multiplies every element of v by s in place.
func Scale(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Cholesky is the lower-triangular factor of a symmetric positive-definite
// matrix, reusable across many solves (the kernel of Gaussian-process
// regression, where one factorization serves every posterior query).
type Cholesky struct {
	l *Matrix
}

// NewCholesky factors a (not modified). It fails when a is not positive
// definite; callers typically add jitter and retry.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("mathx: cholesky requires square matrix")
	}
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("mathx: matrix not positive definite at %d (pivot %g)", i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve returns x with A·x = b using the precomputed factor (O(n²)).
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	n := c.l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("mathx: cholesky solve length %d != %d", len(b), n)
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= c.l.At(i, k) * y[k]
		}
		y[i] = sum / c.l.At(i, i)
	}
	// Back substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= c.l.At(k, i) * x[k]
		}
		x[i] = sum / c.l.At(i, i)
	}
	return x, nil
}
