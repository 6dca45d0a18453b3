package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randTensor(r *rng.RNG, shape ...int) *Tensor {
	t := New(shape...)
	r.FillNormal(t.Data(), 0, 1)
	return t
}

func TestNewShapesAndSize(t *testing.T) {
	cases := []struct {
		shape []int
		size  int
	}{
		{[]int{}, 1},
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4}, 24},
		{[]int{0, 5}, 0},
	}
	for _, c := range cases {
		x := New(c.shape...)
		if x.Size() != c.size {
			t.Errorf("New(%v).Size() = %d, want %d", c.shape, x.Size(), c.size)
		}
		if x.Rank() != len(c.shape) {
			t.Errorf("New(%v).Rank() = %d, want %d", c.shape, x.Rank(), len(c.shape))
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	v := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				x.Set(v, i, j, k)
				v++
			}
		}
	}
	// Row-major: data should be 0..23 in order.
	for i, d := range x.Data() {
		if d != float64(i) {
			t.Fatalf("row-major layout broken at %d: %v", i, d)
		}
	}
	if x.At(1, 2, 3) != 23 {
		t.Fatalf("At(1,2,3) = %v, want 23", x.At(1, 2, 3))
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape does not share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad reshape")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	if got := a.Add(b).Data(); got[3] != 44 {
		t.Errorf("Add: %v", got)
	}
	if got := b.Sub(a).Data(); got[0] != 9 {
		t.Errorf("Sub: %v", got)
	}
	if got := a.Mul(b).Data(); got[2] != 90 {
		t.Errorf("Mul: %v", got)
	}
	if got := a.Scale(2).Data(); got[1] != 4 {
		t.Errorf("Scale: %v", got)
	}
	c := a.Clone()
	c.AXPY(0.5, b)
	if c.At(0, 0) != 6 {
		t.Errorf("AXPY: %v", c.Data())
	}
	if d := a.Dot(b); d != 1*10+2*20+3*30+4*40 {
		t.Errorf("Dot = %v", d)
	}
	if n := FromSlice([]float64{3, 4}, 2).Norm2(); !almostEqual(n, 5, 1e-12) {
		t.Errorf("Norm2 = %v", n)
	}
	if s := a.Sum(); s != 10 {
		t.Errorf("Sum = %v", s)
	}
	if m := FromSlice([]float64{-7, 3}, 2).MaxAbs(); m != 7 {
		t.Errorf("MaxAbs = %v", m)
	}
	if i := FromSlice([]float64{1, 9, 9, 2}, 4).ArgMax(); i != 1 {
		t.Errorf("ArgMax = %d, want first max", i)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestRowAndSliceViews(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := x.Row(1)
	if r.At(0) != 4 || r.Size() != 3 {
		t.Fatalf("Row view wrong: %v", r.Data())
	}
	r.Set(40, 0)
	if x.At(1, 0) != 40 {
		t.Fatal("Row view does not share storage")
	}
	b := New(4, 2, 3, 3)
	s := b.Slice(2)
	if s.Rank() != 3 || s.Size() != 18 {
		t.Fatalf("Slice shape wrong: %v", s.Shape())
	}
	s.Data()[0] = 7
	if b.At(2, 0, 0, 0) != 7 {
		t.Fatal("Slice does not share storage")
	}
}

// Property: addition commutes.
func TestAddCommutative(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%32) + 1
		r := rng.New(seed)
		a, b := randTensor(r, n), randTensor(r, n)
		return a.Add(b).EqualWithin(b.Add(a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: (a+b)+c == a+(b+c) within FP tolerance.
func TestAddAssociative(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%32) + 1
		r := rng.New(seed)
		a, b, c := randTensor(r, n), randTensor(r, n), randTensor(r, n)
		return a.Add(b).Add(c).EqualWithin(a.Add(b.Add(c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and ||x||² = x·x.
func TestDotProperties(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%64) + 1
		r := rng.New(seed)
		a, b := randTensor(r, n), randTensor(r, n)
		if !almostEqual(a.Dot(b), b.Dot(a), 1e-9) {
			return false
		}
		nrm := a.Norm2()
		return almostEqual(nrm*nrm, a.Dot(a), 1e-8*(1+nrm*nrm))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(5)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 17, 29}} {
		a := randTensor(r, dims[0], dims[1])
		b := randTensor(r, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.EqualWithin(want, 1e-9) {
			t.Fatalf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulParallelPathMatchesSerial(t *testing.T) {
	r := rng.New(6)
	// Big enough to trigger the parallel path (m*n*k >= 64k).
	a := randTensor(r, 64, 48)
	b := randTensor(r, 48, 64)
	got := MatMul(a, b)
	want := naiveMatMul(a, b)
	if !got.EqualWithin(want, 1e-8) {
		t.Fatal("parallel MatMul diverges from naive")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestMatMulTransA(t *testing.T) {
	r := rng.New(7)
	a := randTensor(r, 6, 4) // Aᵀ is [4,6]
	b := randTensor(r, 6, 5)
	got := MatMulTransA(a, b)
	want := naiveMatMul(Transpose(a), b)
	if !got.EqualWithin(want, 1e-9) {
		t.Fatal("MatMulTransA mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	r := rng.New(8)
	a := randTensor(r, 3, 7)
	b := randTensor(r, 5, 7) // Bᵀ is [7,5]
	got := MatMulTransB(a, b)
	want := naiveMatMul(a, Transpose(b))
	if !got.EqualWithin(want, 1e-9) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64, rm, rn uint8) bool {
		m, n := int(rm%8)+1, int(rn%8)+1
		r := rng.New(seed)
		a := randTensor(r, m, n)
		return Transpose(Transpose(a)).EqualWithin(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConvOut(t *testing.T) {
	if ConvOut(28, 5, 1, 0) != 24 {
		t.Fatal("ConvOut(28,5,1,0)")
	}
	if ConvOut(28, 5, 1, 2) != 28 {
		t.Fatal("ConvOut(28,5,1,2)")
	}
	if ConvOut(24, 2, 2, 0) != 12 {
		t.Fatal("ConvOut(24,2,2,0)")
	}
}

// naiveConv2D is a direct 7-loop reference convolution for one sample.
func naiveConv2D(x, w, bias *Tensor, stride, pad int) *Tensor {
	cin, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	cout, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	out := New(cout, oh, ow)
	for co := 0; co < cout; co++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for ci := 0; ci < cin; ci++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy < 0 || iy >= h || ix < 0 || ix >= wd {
								continue
							}
							s += x.At(ci, iy, ix) * w.At(co, ci, ky, kx)
						}
					}
				}
				if bias != nil {
					s += bias.At(co)
				}
				out.Set(s, co, oy, ox)
			}
		}
	}
	return out
}

func TestConv2DForwardAgainstNaive(t *testing.T) {
	r := rng.New(9)
	cases := []struct{ n, cin, h, w, cout, k, stride, pad int }{
		{1, 1, 6, 6, 1, 3, 1, 0},
		{2, 3, 8, 8, 4, 3, 1, 1},
		{3, 2, 7, 9, 5, 5, 2, 2},
		{1, 1, 5, 5, 2, 5, 1, 0},
	}
	for _, c := range cases {
		x := randTensor(r, c.n, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.k, c.k)
		b := randTensor(r, c.cout)
		var ws ConvWorkspace
		y := ws.Forward(x, w, b, c.stride, c.pad)
		if y.Dim(0) != c.n {
			t.Fatalf("output batch %d != batch %d", y.Dim(0), c.n)
		}
		for i := 0; i < c.n; i++ {
			want := naiveConv2D(x.Slice(i), w, b, c.stride, c.pad)
			if !y.Slice(i).EqualWithin(want, 1e-9) {
				t.Fatalf("Conv2DForward mismatch on case %+v sample %d", c, i)
			}
		}
	}
}

// Property: the reference col2im is the adjoint of im2col, i.e.
// <im2col(x), y> == <x, col2im(y)>.
func TestIm2ColCol2ImAdjoint(t *testing.T) {
	r := rng.New(10)
	for trial := 0; trial < 20; trial++ {
		c, h, w := 1+r.Intn(3), 4+r.Intn(5), 4+r.Intn(5)
		k := 2 + r.Intn(2)
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		if ConvOut(h, k, stride, pad) <= 0 || ConvOut(w, k, stride, pad) <= 0 {
			continue
		}
		x := randTensor(r, c, h, w)
		cx := refIm2Col(x, k, k, stride, pad)
		y := randTensor(r, cx.Dim(0), cx.Dim(1))
		lhs := cx.Dot(y)
		rhs := x.Dot(refCol2Im(y, c, h, w, k, k, stride, pad))
		if !almostEqual(lhs, rhs, 1e-8*(1+math.Abs(lhs))) {
			t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
		}
	}
}

// TestConv2DBackwardNumerical verifies conv gradients with finite differences.
func TestConv2DBackwardNumerical(t *testing.T) {
	r := rng.New(11)
	n, cin, h, wd := 2, 2, 5, 5
	cout, k, stride, pad := 3, 3, 1, 1
	x := randTensor(r, n, cin, h, wd)
	w := randTensor(r, cout, cin, k, k)
	b := randTensor(r, cout)

	// Scalar loss = sum of conv output weighted by fixed random coefficients.
	coef := randTensor(r, n, cout, ConvOut(h, k, stride, pad), ConvOut(wd, k, stride, pad))
	loss := func() float64 {
		var ws ConvWorkspace
		return ws.Forward(x, w, b, stride, pad).Dot(coef)
	}
	var ws ConvWorkspace
	ws.Forward(x, w, b, stride, pad)
	dw, db := New(w.Shape()...), New(cout)
	dx := ws.Backward(coef, x, w, dw, db, stride, pad, true)

	const eps = 1e-6
	checkGrad := func(name string, param *Tensor, grad *Tensor, samples int) {
		for s := 0; s < samples; s++ {
			i := r.Intn(param.Size())
			orig := param.Data()[i]
			param.Data()[i] = orig + eps
			lp := loss()
			param.Data()[i] = orig - eps
			lm := loss()
			param.Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if !almostEqual(num, grad.Data()[i], 1e-4*(1+math.Abs(num))) {
				t.Fatalf("%s grad mismatch at %d: numeric %v analytic %v", name, i, num, grad.Data()[i])
			}
		}
	}
	checkGrad("x", x, dx, 20)
	checkGrad("w", w, dw, 20)
	checkGrad("b", b, db, 3)
}

func TestMaxPoolForward(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	var ws PoolWorkspace
	y := ws.Forward(x, 2, 2)
	argmax := ws.argmax
	want := []float64{6, 8, 14, 16}
	for i, v := range want {
		if y.Data()[i] != v {
			t.Fatalf("maxpool output %v, want %v", y.Data(), want)
		}
	}
	wantIdx := []int{5, 7, 13, 15}
	for i, v := range wantIdx {
		if argmax[i] != v {
			t.Fatalf("argmax %v, want %v", argmax, wantIdx)
		}
	}
}

// TestMaxPoolMatchesNaive: for six window shapes run through one reused
// workspace, the pooled values and argmax equal a plain scan that keeps
// the first strict maximum in window order, ties and NaN included.
func TestMaxPoolMatchesNaive(t *testing.T) {
	r := rng.New(13)
	x := FromSlice(convVec(r, 3*2*9*8, true), 3, 2, 9, 8)
	for i := range x.data[:40] {
		x.data[i] = float64(i % 3) // ties
	}
	var ws PoolWorkspace
	for _, ks := range [][2]int{{2, 2}, {3, 1}, {3, 2}, {2, 1}, {1, 1}, {4, 3}} {
		kernel, stride := ks[0], ks[1]
		y := ws.Forward(x, kernel, stride)
		oh, ow := y.Dim(2), y.Dim(3)
		for o := range y.data {
			n, c, oy, ox := o/(2*oh*ow), o/(oh*ow)%2, o/ow%oh, o%ow
			src := x.data[n*2*9*8 : (n+1)*2*9*8]
			bi := c*9*8 + oy*stride*8 + ox*stride
			for ky := 0; ky < kernel; ky++ {
				for kx := 0; kx < kernel; kx++ {
					if i := c*9*8 + (oy*stride+ky)*8 + ox*stride + kx; src[i] > src[bi] {
						bi = i
					}
				}
			}
			if ws.argmax[o] != bi || math.Float64bits(y.data[o]) != math.Float64bits(src[bi]) {
				t.Fatalf("kernel %d stride %d: output %d is %v at %d, naive %v at %d", kernel, stride, o, y.data[o], ws.argmax[o], src[bi], bi)
			}
		}
	}
}

func TestMaxPoolBackwardRoutesGradient(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	var ws PoolWorkspace
	ws.Forward(x, 2, 2)
	dy := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := ws.Backward(dy)
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 1, 3) != 2 || dx.At(0, 0, 3, 1) != 3 || dx.At(0, 0, 3, 3) != 4 {
		t.Fatalf("gradient routing wrong: %v", dx.Data())
	}
	if dx.Sum() != dy.Sum() {
		t.Fatal("maxpool backward must conserve gradient mass")
	}
}

func TestMaxPoolNumericalGradient(t *testing.T) {
	r := rng.New(12)
	x := randTensor(r, 2, 2, 6, 6)
	coef := randTensor(r, 2, 2, 3, 3)
	loss := func() float64 {
		var ws PoolWorkspace
		return ws.Forward(x, 2, 2).Dot(coef)
	}
	var ws PoolWorkspace
	ws.Forward(x, 2, 2)
	dx := ws.Backward(coef)
	const eps = 1e-6
	for s := 0; s < 30; s++ {
		i := r.Intn(x.Size())
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		lp := loss()
		x.Data()[i] = orig - eps
		lm := loss()
		x.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if !almostEqual(num, dx.Data()[i], 1e-4*(1+math.Abs(num))) {
			t.Fatalf("maxpool grad mismatch at %d: numeric %v analytic %v", i, num, dx.Data()[i])
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 128, 128)
	y := randTensor(r, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkConv2DForward(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 8, 1, 28, 28)
	w := randTensor(r, 16, 1, 5, 5)
	bias := randTensor(r, 16)
	var ws ConvWorkspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Forward(x, w, bias, 1, 0)
	}
}
