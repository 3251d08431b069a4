package mathx

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hunter-cdb/hunter/internal/sim"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %+v", at)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := a.MulVec([]float64{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("mulvec = %v", v)
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot wrong")
	}
	// The squared Euclidean norm is v·v.
	if v := []float64{3, 4}; !almostEq(math.Sqrt(Dot(v, v)), 5, 1e-12) {
		t.Fatal("norm wrong")
	}
}

func TestCholeskySolveKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 9] → x = [1.5, 2].
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Solve([]float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1.5, 1e-9) || !almostEq(x[1], 2, 1e-9) {
		t.Fatalf("solve = %v", x)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected failure on indefinite matrix")
	}
}

// TestCholeskySolveProperty builds random SPD matrices A = MᵀM + I and
// verifies A·x ≈ b.
func TestCholeskySolveProperty(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.Gaussian(0, 1)
		}
		a := m.Gram()
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Gaussian(0, 3)
		}
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x, err := c.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ax := a.MulVec(x)
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-6) {
				t.Fatalf("trial %d: A·x[%d]=%v want %v", trial, i, ax[i], b[i])
			}
		}
	}
}

// TestSymEigenProperty: for random symmetric matrices, A·v = λ·v and
// eigenvalues are sorted descending.
func TestSymEigenProperty(t *testing.T) {
	rng := sim.NewRNG(12)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.Gaussian(0, 1)
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		eig, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if k > 0 && eig.Values[k] > eig.Values[k-1]+1e-9 {
				t.Fatalf("eigenvalues not sorted: %v", eig.Values)
			}
			v := eig.Vectors.Row(k)
			av := a.MulVec(v)
			for i := 0; i < n; i++ {
				if !almostEq(av[i], eig.Values[k]*v[i], 1e-6) {
					t.Fatalf("trial %d: A·v != λ·v at eigenpair %d", trial, k)
				}
			}
			if !almostEq(math.Sqrt(Dot(v, v)), 1, 1e-6) {
				t.Fatalf("eigenvector %d not unit norm", k)
			}
		}
	}
}

func TestSymEigenKnown(t *testing.T) {
	// [[2,0],[0,3]] has eigenvalues 3, 2 (descending).
	a := FromRows([][]float64{{2, 0}, {0, 3}})
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(eig.Values[0], 3, 1e-9) || !almostEq(eig.Values[1], 2, 1e-9) {
		t.Fatalf("eigenvalues = %v", eig.Values)
	}
}

func TestMeanVarianceStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatal("mean wrong")
	}
	if Variance(v) != 4 {
		t.Fatal("variance wrong")
	}
	if StdDev(v) != 2 {
		t.Fatal("std wrong")
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
}

func TestStandardize(t *testing.T) {
	m := FromRows([][]float64{{1, 100}, {3, 200}, {5, 300}})
	means, stds := Standardize(m)
	if means[0] != 3 || means[1] != 200 {
		t.Fatalf("means = %v", means)
	}
	if stds[0] == 0 || stds[1] == 0 {
		t.Fatalf("stds = %v", stds)
	}
	for j := 0; j < 2; j++ {
		col := make([]float64, 3)
		for i := 0; i < 3; i++ {
			col[i] = m.At(i, j)
		}
		if !almostEq(Mean(col), 0, 1e-9) || !almostEq(StdDev(col), 1, 1e-9) {
			t.Fatalf("column %d not standardized", j)
		}
	}
}

func TestStandardizeConstantColumn(t *testing.T) {
	m := FromRows([][]float64{{7}, {7}, {7}})
	Standardize(m)
	for i := 0; i < 3; i++ {
		if m.At(i, 0) != 0 {
			t.Fatal("constant column should center to zero without NaN")
		}
	}
}

// TestScaleAddInPlaceQuick checks that Scale multiplies in place.
func TestScaleAddInPlaceQuick(t *testing.T) {
	f := func(vals []float64, s float64) bool {
		if len(vals) == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return true
		}
		a := append([]float64(nil), vals...)
		Scale(a, s)
		for i := range a {
			if !math.IsNaN(vals[i]*s) && a[i] != vals[i]*s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
