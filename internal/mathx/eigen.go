package mathx

import (
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a symmetric matrix: Values sorted
// descending and Vectors with the corresponding eigenvector in each row.
type Eigen struct {
	Values  []float64
	Vectors *Matrix // row i is the eigenvector for Values[i]
}

// SymEigen computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi rotation method. The matrices here are covariance matrices
// over at most a few dozen metrics, where Jacobi is simple, numerically
// robust and fast enough.
func SymEigen(a *Matrix) (*Eigen, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("mathx: eigen requires square matrix, got %dx%d", a.Rows, a.Cols)
	}
	// Work on a copy; accumulate rotations into v.
	w := a.Clone()
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-20 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s, n)
			}
		}
	}

	eig := &Eigen{Values: make([]float64, n), Vectors: NewMatrix(n, n)}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return w.At(idx[x], idx[x]) > w.At(idx[y], idx[y]) })
	for r, i := range idx {
		eig.Values[r] = w.At(i, i)
		for j := 0; j < n; j++ {
			eig.Vectors.Set(r, j, v.At(j, i)) // column i of v is eigenvector i
		}
	}
	return eig, nil
}

// rotate applies the Jacobi rotation (p, q, c, s) to w and accumulates it
// into the eigenvector matrix v. The passes run in order because the
// column pass reads what the row pass wrote.
func rotate(w, v *Matrix, p, q int, c, s float64, n int) {
	for k := 0; k < n; k++ {
		wkp, wkq := w.At(k, p), w.At(k, q)
		w.Set(k, p, c*wkp-s*wkq)
		w.Set(k, q, s*wkp+c*wkq)
	}
	for k := 0; k < n; k++ {
		wpk, wqk := w.At(p, k), w.At(q, k)
		w.Set(p, k, c*wpk-s*wqk)
		w.Set(q, k, s*wpk+c*wqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}
