package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// gemmForms are the kernel entry points with a destination of m×n, an A of
// m×k (k×m for TN) and a B of k×n (n×k for NT). NN runs as a middle band of
// rows, the way MatMul's workers call it.
var gemmForms = []struct {
	name string
	acc  bool
	run  func(c, a, b []float64, m, k, n int)
}{
	{"NN", false, func(c, a, b []float64, m, k, n int) {
		gemmNN(c, a, b, 0, m/3, k, n)
		gemmNN(c, a, b, m/3, m, k, n)
	}},
	{"TN", false, func(c, a, b []float64, m, k, n int) { gemmTN(c, a, b, m, k, n, false) }},
	{"TN-acc", true, func(c, a, b []float64, m, k, n int) { gemmTN(c, a, b, m, k, n, true) }},
	{"NT", false, func(c, a, b []float64, m, k, n int) { gemmNT(c, a, b, m, k, n, false) }},
	{"NT-acc", true, func(c, a, b []float64, m, k, n int) { gemmNT(c, a, b, m, k, n, true) }},
}

// edgyVec returns n values starting at an odd offset into their backing
// array, so that no vector load is 32-byte aligned. They mix signed zeros,
// subnormals, tiny values whose products underflow, huge values whose
// sums can overflow to ±Inf, and N(0,1).
func edgyVec(r *rng.RNG, n int) []float64 {
	v := make([]float64, n+1)[1:]
	for i := range v {
		switch r.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		case 2:
			v[i] = float64(r.Intn(1000)-500) * math.SmallestNonzeroFloat64
		case 3:
			v[i] = r.Normal(0, 1) * 0x1p-520
		case 4:
			v[i] = r.Normal(0, 1) * 0x1p+510
		default:
			v[i] = r.Normal(0, 1)
		}
	}
	return v
}

// checkSIMDMatchesScalar runs one kernel form on the assembly and the Go
// path from the same destination and reports the first output whose bits
// differ.
func checkSIMDMatchesScalar(t *testing.T, r *rng.RNG, form int, m, k, n int) {
	t.Helper()
	f := gemmForms[form]
	a, b := edgyVec(r, m*k), edgyVec(r, k*n)
	start := edgyVec(r, m*n)
	if !f.acc {
		for i := range start {
			start[i] = math.NaN() // every output must be written
		}
	}
	run := func(simd bool) []float64 {
		defer func(old bool) { useSIMD = old }(useSIMD)
		useSIMD = simd
		c := append(make([]float64, 1, m*n+1), start...)[1:]
		f.run(c, a, b, m, k, n)
		return c
	}
	got, want := run(true), run(false)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s m=%d k=%d n=%d: element %d is %v (%#x) on the SIMD path, %v (%#x) on the Go path",
				f.name, m, k, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func requireSIMD(t testing.TB) {
	if !haveSIMD {
		t.Skip("no SIMD kernels here: the CPU lacks AVX2 or OS-enabled YMM state, or the build is not amd64 or uses purego")
	}
}

// TestGemmSIMDMatchesScalar: the AVX2 kernels give every output of every
// form the bits of the Go kernels, over every remainder of the 4×8 tile and
// the inner sizes the CNN and MLP use, with unaligned operands, signed
// zeros, subnormals and overflow.
func TestGemmSIMDMatchesScalar(t *testing.T) {
	requireSIMD(t)
	r := rng.New(31)
	for form := range gemmForms {
		for _, k := range []int{0, 1, 4, 25, 100, 196, 784, 1568} {
			for m := 1; m <= 9; m++ {
				for n := 1; n <= 17; n++ {
					checkSIMDMatchesScalar(t, r, form, m, k, n)
				}
			}
		}
	}
}

// FuzzGemmMatchesScalar compares the two paths on fuzzed shapes and seeds.
func FuzzGemmMatchesScalar(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint16(25), uint8(8), uint64(1))
	f.Add(uint8(3), uint8(9), uint16(196), uint8(17), uint64(2))
	f.Add(uint8(4), uint8(1), uint16(0), uint8(3), uint64(3))
	f.Fuzz(func(t *testing.T, form, m uint8, k uint16, n uint8, seed uint64) {
		requireSIMD(t)
		checkSIMDMatchesScalar(t, rng.New(seed), int(form)%len(gemmForms), 1+int(m)%16, int(k)%1600, 1+int(n)%24)
	})
}

// BenchmarkGemm times each kernel at the shapes of one cnn-dp sample
// (conv layers) or batch of 32 (linear layer), on the SIMD and the Go path.
func BenchmarkGemm(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
		run     func(c, a, b, panel []float64, m, k, n int)
	}{
		{"conv1-fwd-NN", 4, 25, 784, func(c, a, b, _ []float64, m, k, n int) { gemmNN(c, a, b, 0, m, k, n) }},
		{"conv2-fwd-NN", 8, 100, 196, func(c, a, b, _ []float64, m, k, n int) { gemmNN(c, a, b, 0, m, k, n) }},
		{"conv2-dx-TN", 100, 8, 196, func(c, a, b, _ []float64, m, k, n int) { gemmTN(c, a, b, m, k, n, false) }},
		{"conv1-dW-NT", 4, 784, 25, func(c, a, b, p []float64, m, k, n int) { gemmNTPacked(c, a, b, m, k, n, true, p) }},
		{"conv2-dW-NT", 8, 196, 100, func(c, a, b, p []float64, m, k, n int) { gemmNTPacked(c, a, b, m, k, n, true, p) }},
		{"fc1-fwd-NT", 32, 392, 32, func(c, a, b, p []float64, m, k, n int) { gemmNTPacked(c, a, b, m, k, n, false, p) }},
		{"fc1-dW-TN", 32, 32, 392, func(c, a, b, _ []float64, m, k, n int) { gemmTN(c, a, b, m, k, n, true) }},
		{"fc1-dx-NN", 32, 32, 392, func(c, a, b, _ []float64, m, k, n int) { gemmNN(c, a, b, 0, m, k, n) }},
	}
	r := rng.New(33)
	for _, s := range shapes {
		a, bb := sparseVec(r, s.m*s.k), sparseVec(r, s.k*s.n)
		c, panel := make([]float64, s.m*s.n), make([]float64, 8*s.k)
		for _, simd := range []bool{true, false} {
			if simd && !haveSIMD {
				continue
			}
			b.Run(s.name+map[bool]string{true: "/simd", false: "/go"}[simd], func(b *testing.B) {
				defer func(old bool) { useSIMD = old }(useSIMD)
				useSIMD = simd
				for i := 0; i < b.N; i++ {
					s.run(c, a, bb, panel, s.m, s.k, s.n)
				}
			})
		}
	}
}
