package pca

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/hunter-cdb/hunter/internal/mathx"
	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// This file pins the fit to the seed implementation: seedFit below ports
// the original pipeline — the copy-a-column Standardize, transpose +
// upper triangle Gram, the closure-based Jacobi — and the tests require
// Fit (at any worker count) to reproduce its models bit for bit.

func seedFit(rows [][]float64, varTarget float64, maxDim int) *Model {
	x := mathx.FromRows(rows)
	means, stds := seedStandardize(x)
	n, u := x.Rows, x.Cols
	cov := seedGram(x)
	for i := range cov.Data {
		cov.Data[i] /= float64(n - 1)
	}
	vals, vecs := seedSymEigen(cov)
	var total float64
	for _, v := range vals {
		if v > 0 {
			total += v
		}
	}
	keep, cum := 0, 0.0
	for keep < u {
		if vals[keep] > 0 {
			cum += vals[keep]
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
		copy(comp.Row(i), vecs.Row(i))
	}
	return &Model{means: means, stds: stds, components: comp, variances: vals, inDim: u, outDim: keep}
}

func seedStandardize(m *mathx.Matrix) (means, stds []float64) {
	means = make([]float64, m.Cols)
	stds = make([]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		col := make([]float64, m.Rows)
		for i := 0; i < m.Rows; i++ {
			col[i] = m.At(i, j)
		}
		means[j] = mathx.Mean(col)
		stds[j] = mathx.StdDev(col)
		sd := stds[j]
		if sd == 0 {
			sd = 1
		}
		for i := 0; i < m.Rows; i++ {
			m.Set(i, j, (m.At(i, j)-means[j])/sd)
		}
	}
	return means, stds
}

func seedGram(m *mathx.Matrix) *mathx.Matrix {
	t := m.T()
	n := t.Rows
	out := mathx.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			out.Set(i, j, mathx.Dot(t.Row(i), t.Row(j)))
		}
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			out.Set(i, j, out.At(j, i))
		}
	}
	return out
}

func seedSymEigen(a *mathx.Matrix) ([]float64, *mathx.Matrix) {
	n := a.Rows
	w := a.Clone()
	v := mathx.Identity(n)
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
		}
	}
	vals := make([]float64, n)
	vecs := mathx.NewMatrix(n, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return w.At(idx[x], idx[x]) > w.At(idx[y], idx[y]) })
	for r, i := range idx {
		vals[r] = w.At(i, i)
		for j := 0; j < n; j++ {
			vecs.Set(r, j, v.At(j, i))
		}
	}
	return vals, vecs
}

func metricRows(rng *sim.RNG, n, dim int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			// Correlated columns with wildly different magnitudes, like
			// the 63-metric vectors.
			base := rng.Gaussian(0, 1)
			rows[i][j] = base*float64(j+1) + rng.Gaussian(0, 0.1)*math.Pow(10, float64(j%5))
		}
	}
	return rows
}

// TestFitMatchesSeedImplementation requires Fit, at 1 worker and at 8
// workers, to emit exactly the model the seed pipeline emitted.
func TestFitMatchesSeedImplementation(t *testing.T) {
	for _, shape := range []struct{ n, dim int }{{40, 12}, {120, 30}} {
		rng := sim.NewRNG(int64(shape.n))
		rows := metricRows(rng, shape.n, shape.dim)
		want := seedFit(rows, 0.9, 0)
		for _, w := range []int{1, 8} {
			prev := parallel.SetWorkers(w)
			got, err := Fit(rows, 0.9, 0)
			parallel.SetWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.means, got.means) || !reflect.DeepEqual(want.stds, got.stds) {
				t.Fatalf("%d×%d workers %d: standardization differs", shape.n, shape.dim, w)
			}
			if !reflect.DeepEqual(want.variances, got.variances) {
				t.Fatalf("%d×%d workers %d: eigenvalues differ", shape.n, shape.dim, w)
			}
			if !reflect.DeepEqual(want.components.Data, got.components.Data) {
				t.Fatalf("%d×%d workers %d: components differ", shape.n, shape.dim, w)
			}
			var wantBuf, gotBuf bytes.Buffer
			if err := want.SnapshotTo(&wantBuf); err != nil {
				t.Fatal(err)
			}
			if err := got.SnapshotTo(&gotBuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
				t.Fatalf("%d×%d workers %d: snapshot bytes differ", shape.n, shape.dim, w)
			}
		}
	}
}

// TestFitAllocs guards the fit's allocation budget: the observation
// matrix, its transpose, the covariance, the eigensolver's working
// matrices and the returned model, a couple of dozen allocations in all
// (the seed implementation paid ~41k, mostly Jacobi rotation closures).
func TestFitAllocs(t *testing.T) {
	rng := sim.NewRNG(8)
	rows := metricRows(rng, 120, 30)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Fit(rows, 0.9, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 22 {
		t.Errorf("Fit = %v allocs, want <= 22 (seed implementation: ~41k)", allocs)
	}
}
