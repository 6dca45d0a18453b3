package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// sparseVec returns n values of which about half are exact zeros (a few of
// them negative zeros) and the rest N(0,1), like ReLU activations and the
// gradients routed through them.
func sparseVec(r *rng.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch x := r.Normal(0, 1); {
		case x < -1.5:
			v[i] = math.Copysign(0, -1)
		case x < 0:
			v[i] = 0
		default:
			v[i] = x
		}
	}
	return v
}

// refGemm is the scalar reference every tiled kernel must match bit for
// bit: c[i,j] = Σ_p A[i,p]·B[p,j] summed from +0 in ascending p, then
// stored, or added to c[i,j] when acc is true. A [m,k] is read from a
// stored as [k,m] when transA is set, and B [k,n] from b stored as [n,k]
// when transB is set.
func refGemm(c, a, b []float64, m, k, n int, transA, transB, acc bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				x, y := a[i*k+p], b[p*n+j]
				if transA {
					x = a[p*m+i]
				}
				if transB {
					y = b[j*k+p]
				}
				s += x * y
			}
			if acc {
				c[i*n+j] += s
			} else {
				c[i*n+j] = s
			}
		}
	}
}

// TestGemmKernelsBitIdentical checks the NN, TN, NT and NT-accumulate
// kernels (and TN-accumulate, which Linear's weight gradient uses) against
// refGemm over every remainder of the 2×4 tile and the inner sizes the CNN
// and MLP use.
func TestGemmKernelsBitIdentical(t *testing.T) {
	r := rng.New(21)
	kernels := []struct {
		name                string
		transA, transB, acc bool
		run                 func(c, a, b []float64, m, k, n int)
	}{
		{"NN", false, false, false, func(c, a, b []float64, m, k, n int) { gemmNN(c, a, b, 0, m, k, n) }},
		{"TN", true, false, false, func(c, a, b []float64, m, k, n int) { gemmTN(c, a, b, m, k, n, false) }},
		{"TN-acc", true, false, true, func(c, a, b []float64, m, k, n int) { gemmTN(c, a, b, m, k, n, true) }},
		{"NT", false, true, false, func(c, a, b []float64, m, k, n int) { gemmNT(c, a, b, m, k, n, false) }},
		{"NT-acc", false, true, true, func(c, a, b []float64, m, k, n int) { gemmNT(c, a, b, m, k, n, true) }},
	}
	for _, kern := range kernels {
		for _, k := range []int{1, 4, 25, 100, 196, 784} {
			for m := 1; m <= 5; m++ {
				for n := 1; n <= 9; n++ {
					a, b := sparseVec(r, m*k), sparseVec(r, k*n)
					start := make([]float64, m*n)
					if kern.acc {
						r.FillNormal(start, 0, 1)
					}
					got := append([]float64(nil), start...)
					want := append([]float64(nil), start...)
					kern.run(got, a, b, m, k, n)
					refGemm(want, a, b, m, k, n, kern.transA, kern.transB, kern.acc)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s m=%d k=%d n=%d: element %d is %v (%#x), reference %v (%#x)",
								kern.name, m, k, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestMatMulWrappersBitIdentical checks the allocating entry points,
// including MatMul's parallel row split and AddMatMulTransA, against the
// same reference.
func TestMatMulWrappersBitIdentical(t *testing.T) {
	r := rng.New(22)
	for _, d := range [][3]int{{7, 25, 9}, {33, 100, 30}, {64, 196, 13}} {
		m, k, n := d[0], d[1], d[2]
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			a := FromSlice(sparseVec(r, m*k), m, k)
			b := FromSlice(sparseVec(r, k*n), k, n)
			want := make([]float64, m*n)
			refGemm(want, a.data, b.data, m, k, n, false, false, false)
			at, bt := Transpose(a), Transpose(b)
			acc := FromSlice(sparseVec(r, m*n), m, n)
			accWant := acc.Clone()
			accWant.AddInPlace(FromSlice(want, m, n))
			AddMatMulTransA(acc, at, b)
			for name, got := range map[string]*Tensor{
				"MatMul":          MatMul(a, b),
				"MatMulTransA":    MatMulTransA(at, b),
				"MatMulTransB":    MatMulTransB(a, bt),
				"AddMatMulTransA": acc,
			} {
				ref := want
				if name == "AddMatMulTransA" {
					ref = accWant.data
				}
				for i := range ref {
					if math.Float64bits(got.data[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s: element %d is %v, reference %v", name, i, got.data[i], ref[i])
					}
				}
			}
		})
	}
}
