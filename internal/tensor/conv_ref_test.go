package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// The reference convolution is the explicit GEMM the implicit one must
// match bit for bit. Each sample's column matrix B [Cin·KH·KW, OH·OW] is
// materialized by im2col, padding written as +0; the forward pass is
// gemmNN(W, B) plus the bias; the weight gradient sums each block of
// convBlock samples' gemmNTPacked(dy, B) into a partial and adds the
// partials in block order; the input gradient is gemmTN(W, dy) scattered
// back by col2im.

// imageGeom returns the convolution shape of one [c, h, w] image.
func imageGeom(c, h, w, kh, kw, stride, pad int) convGeom {
	g := convGeom{n: 1, cin: c, h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad,
		oh: ConvOut(h, kh, stride, pad), ow: ConvOut(w, kw, stride, pad)}
	if g.oh <= 0 || g.ow <= 0 {
		panic(fmt.Sprintf("tensor: convolution of [%d %d %d] with kernel %dx%d stride %d pad %d is empty", c, h, w, kh, kw, stride, pad))
	}
	return g
}

// refIm2Col unrolls one [C, H, W] image into its [C*KH*KW, OH*OW] column
// matrix; each column holds the receptive field of one output position.
func refIm2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	g := imageGeom(x.shape[0], x.shape[1], x.shape[2], kh, kw, stride, pad)
	out := New(g.rows(), g.plane())
	im2col(out.data, x.data, g)
	return out
}

// refCol2Im is the adjoint of refIm2Col: it scatters (accumulates) a
// column matrix back into a new [C, H, W] image.
func refCol2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	g := imageGeom(c, h, w, kh, kw, stride, pad)
	out := New(c, h, w)
	col2im(out.data, cols.data, g)
	return out
}

// im2col writes the [rows, plane] column matrix of the image x into dst,
// padding zeros included, so dst may hold anything beforehand.
func im2col(dst, x []float64, g convGeom) {
	plane := g.plane()
	for ci := 0; ci < g.cin; ci++ {
		img := x[ci*g.h*g.w : (ci+1)*g.h*g.w]
		for ki := 0; ki < g.kh; ki++ {
			for kj := 0; kj < g.kw; kj++ {
				row := dst[((ci*g.kh+ki)*g.kw+kj)*plane:][:plane]
				lo, hi := g.validCols(kj)
				for oy := 0; oy < g.oh; oy++ {
					out := row[oy*g.ow : (oy+1)*g.ow]
					iy := oy*g.stride + ki - g.pad
					if iy < 0 || iy >= g.h {
						clear(out)
						continue
					}
					src := img[iy*g.w : (iy+1)*g.w]
					clear(out[:lo])
					for ox := lo; ox < hi; ox++ {
						out[ox] = src[ox*g.stride+kj-g.pad]
					}
					clear(out[hi:])
				}
			}
		}
	}
}

// col2im adds the [rows, plane] matrix cols into the image dx.
func col2im(dx, cols []float64, g convGeom) {
	plane := g.plane()
	for ci := 0; ci < g.cin; ci++ {
		img := dx[ci*g.h*g.w : (ci+1)*g.h*g.w]
		for ki := 0; ki < g.kh; ki++ {
			for kj := 0; kj < g.kw; kj++ {
				row := cols[((ci*g.kh+ki)*g.kw+kj)*plane:][:plane]
				lo, hi := g.validCols(kj)
				for oy := 0; oy < g.oh; oy++ {
					iy := oy*g.stride + ki - g.pad
					if iy < 0 || iy >= g.h {
						continue
					}
					dst := img[iy*g.w : (iy+1)*g.w]
					src := row[oy*g.ow : (oy+1)*g.ow]
					for ox := lo; ox < hi; ox++ {
						dst[ox*g.stride+kj-g.pad] += src[ox]
					}
				}
			}
		}
	}
}

// refConvForward returns the reference y [N, Cout, OH, OW] and the
// samples' column matrices, back to back.
func refConvForward(x, weight, bias *Tensor, stride, pad int) (y *Tensor, cols []float64) {
	g := newConvGeom(x, weight, stride, pad)
	rows, plane, in := g.rows(), g.plane(), g.cin*g.h*g.w
	cols = make([]float64, g.n*rows*plane)
	y = New(g.n, g.cout, g.oh, g.ow)
	for i := 0; i < g.n; i++ {
		col := cols[i*rows*plane : (i+1)*rows*plane]
		im2col(col, x.data[i*in:(i+1)*in], g)
		dst := y.data[i*g.cout*plane : (i+1)*g.cout*plane]
		gemmNN(dst, weight.data, col, 0, g.cout, rows, plane)
		if bias != nil {
			for co, b := range bias.data {
				for j := range dst[co*plane : (co+1)*plane] {
					dst[co*plane+j] += b
				}
			}
		}
	}
	return y, cols
}

// refConvBackward adds the reference weight and bias gradients to dW and
// dB (nil for none) and returns the input gradient.
func refConvBackward(dy, x, weight *Tensor, cols []float64, dW, dB *Tensor, stride, pad int) *Tensor {
	g := newConvGeom(x, weight, stride, pad)
	rows, plane, cout, in := g.rows(), g.plane(), g.cout, g.cin*g.h*g.w
	blocks := (g.n + convBlock - 1) / convBlock
	pw, pb := make([]float64, blocks*cout*rows), make([]float64, blocks*cout)
	pk, dcols := make([]float64, packLen(plane)), make([]float64, rows*plane)
	dx := New(g.n, g.cin, g.h, g.w)
	for i := 0; i < g.n; i++ {
		b := i / convBlock
		dyi := dy.data[i*cout*plane : (i+1)*cout*plane]
		col := cols[i*rows*plane : (i+1)*rows*plane]
		gemmNTPacked(pw[b*cout*rows:(b+1)*cout*rows], dyi, col, cout, plane, rows, true, pk)
		for co := 0; co < cout; co++ {
			s := 0.0
			for _, v := range dyi[co*plane : (co+1)*plane] {
				s += v
			}
			pb[b*cout+co] += s
		}
		gemmTN(dcols, weight.data, dyi, rows, cout, plane, false)
		col2im(dx.data[i*in:(i+1)*in], dcols, g)
	}
	addBlocks(dW.data, pw, blocks)
	if dB != nil {
		addBlocks(dB.data, pb, blocks)
	}
	return dx
}

// convVec returns n values that mix signed zeros, subnormals and N(0,1),
// plus ±Inf and NaN at a low rate when nonFinite is set.
func convVec(r *rng.RNG, n int, nonFinite bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r.Intn(10) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		case 2:
			v[i] = float64(r.Intn(1000)-500) * math.SmallestNonzeroFloat64
		default:
			v[i] = r.Normal(0, 1)
		}
		if nonFinite && r.Intn(97) == 0 {
			v[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)]
		}
	}
	return v
}

// convCase is one convolution shape.
type convCase struct{ n, cin, h, w, cout, k, stride, pad int }

// checkConvMatchesReference runs one case through the workspace ws and
// through the reference, on the current kernel path, and reports the first
// element of y, dW, dB or dx whose bits differ.
func checkConvMatchesReference(t *testing.T, ws *ConvWorkspace, r *rng.RNG, c convCase, nonFinite bool) {
	t.Helper()
	oh, ow := ConvOut(c.h, c.k, c.stride, c.pad), ConvOut(c.w, c.k, c.stride, c.pad)
	if oh <= 0 || ow <= 0 {
		return
	}
	x := FromSlice(convVec(r, c.n*c.cin*c.h*c.w, nonFinite), c.n, c.cin, c.h, c.w)
	w := FromSlice(convVec(r, c.cout*c.cin*c.k*c.k, nonFinite), c.cout, c.cin, c.k, c.k)
	b := FromSlice(convVec(r, c.cout, nonFinite), c.cout)
	dy := FromSlice(convVec(r, c.n*c.cout*oh*ow, nonFinite), c.n, c.cout, oh, ow)
	dW0, dB0 := convVec(r, w.Size(), false), convVec(r, c.cout, false)
	wantDW, wantDB := FromSlice(append([]float64(nil), dW0...), w.shape...), FromSlice(append([]float64(nil), dB0...), c.cout)
	gotDW, gotDB := FromSlice(append([]float64(nil), dW0...), w.shape...), FromSlice(append([]float64(nil), dB0...), c.cout)

	wantY, cols := refConvForward(x, w, b, c.stride, c.pad)
	wantDX := refConvBackward(dy, x, w, cols, wantDW, wantDB, c.stride, c.pad)
	gotY := ws.Forward(x, w, b, c.stride, c.pad)
	sameBits(t, c, "y", gotY, wantY)
	gotDX := ws.Backward(dy, x, w, gotDW, gotDB, c.stride, c.pad, true)
	sameBits(t, c, "dW", gotDW, wantDW)
	sameBits(t, c, "dB", gotDB, wantDB)
	sameBits(t, c, "dx", gotDX, wantDX)
}

// sameBits fails unless every element of got has the bits of want's. A
// NaN matches any NaN: its payload and sign are not part of the contract,
// because x86 returns the first operand's NaN and the Go compiler may
// commute the operands of an addition.
func sameBits(t *testing.T, c convCase, name string, got, want *Tensor) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%+v simd=%v: %s has %d elements, reference %d", c, useSIMD, name, got.Size(), want.Size())
	}
	for i, v := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(got.data[i])) {
			t.Fatalf("%+v simd=%v: %s[%d] is %v (%#x), reference %v (%#x)",
				c, useSIMD, name, i, got.data[i], math.Float64bits(got.data[i]), v, math.Float64bits(v))
		}
	}
}

// kernelPaths runs f on the Go kernels and, where the CPU has them, on the
// SIMD kernels.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	for _, simd := range []bool{false, true} {
		if simd && !haveSIMD {
			continue
		}
		t.Run(map[bool]string{true: "simd", false: "go"}[simd], func(t *testing.T) {
			defer func(old bool) { useSIMD = old }(useSIMD)
			useSIMD = simd
			f(t)
		})
	}
}

// TestConvMatchesIm2ColReference: the implicit-GEMM ConvWorkspace gives
// y, dW, dB and dx the bits of the materialized-im2col reference, on both
// kernel paths, over strides 1 and 2, padding 0–2, kernels 1–5, channel
// counts 1–9 (multiples of 4 and not), odd and even image sizes, batches
// that fill, miss and overrun a 16-sample gradient block, and inputs with
// signed zeros, subnormals, ±Inf and NaN. One workspace serves every case,
// so a change of geometry or batch must not leave stale padding behind.
func TestConvMatchesIm2ColReference(t *testing.T) {
	channels := [][2]int{{1, 1}, {3, 4}, {4, 9}, {9, 5}, {2, 8}, {5, 3}, {8, 7}}
	batches := []int{1, 15, 16, 17, 37}
	kernelPaths(t, func(t *testing.T) {
		r := rng.New(41)
		var ws ConvWorkspace
		i := 0
		for k := 1; k <= 5; k++ {
			for stride := 1; stride <= 2; stride++ {
				for pad := 0; pad <= 2; pad++ {
					for _, ch := range channels {
						c := convCase{n: batches[i%len(batches)], cin: ch[0], cout: ch[1], k: k, stride: stride, pad: pad,
							h: k + i%5, w: k + 2 + i*3%7}
						checkConvMatchesReference(t, &ws, r, c, i%2 == 1)
						i++
					}
				}
			}
		}
	})
}

// FuzzConvMatchesIm2Col compares the workspace with the reference on
// fuzzed shapes and seeds, on both kernel paths.
func FuzzConvMatchesIm2Col(f *testing.F) {
	f.Add(uint8(1), uint8(4), uint8(5), uint8(0), uint8(2), uint8(28), uint8(28), uint8(17), true, uint64(1))
	f.Add(uint8(4), uint8(8), uint8(5), uint8(0), uint8(2), uint8(14), uint8(14), uint8(3), false, uint64(2))
	f.Add(uint8(3), uint8(5), uint8(3), uint8(1), uint8(1), uint8(9), uint8(7), uint8(2), true, uint64(3))
	f.Fuzz(func(t *testing.T, cin, cout, k, stride, pad, h, w, n uint8, nonFinite bool, seed uint64) {
		c := convCase{n: 1 + int(n)%40, cin: 1 + int(cin)%9, cout: 1 + int(cout)%12, k: 1 + int(k)%6,
			stride: 1 + int(stride)%3, pad: int(pad) % 3, h: 1 + int(h)%30, w: 1 + int(w)%30}
		kernelPaths(t, func(t *testing.T) {
			var ws ConvWorkspace
			checkConvMatchesReference(t, &ws, rng.New(seed), c, nonFinite)
		})
	})
}

// TestConv2DBackwardIndependentOfGOMAXPROCS: the weight- and bias-gradient
// partials are reduced over fixed 16-sample blocks in block order,
// so dW, dB and dx are the same bits whatever the number of workers. The
// batch of 37 leaves a short last block.
func TestConv2DBackwardIndependentOfGOMAXPROCS(t *testing.T) {
	r := rng.New(23)
	x := FromSlice(sparseVec(r, 37*4*14*14), 37, 4, 14, 14)
	w := randTensor(r, 8, 4, 5, 5)
	b := randTensor(r, 8)
	dy := FromSlice(sparseVec(r, 37*8*14*14), 37, 8, 14, 14)
	run := func(procs int) []*Tensor {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var ws ConvWorkspace
		ws.Forward(x, w, b, 1, 2)
		dw, db := New(w.shape...), New(8)
		dx := ws.Backward(dy, x, w, dw, db, 1, 2, true)
		return []*Tensor{dx, dw, db}
	}
	want := run(1)
	for _, procs := range []int{2, 3, 4} {
		got := run(procs)
		for g, name := range []string{"dx", "dW", "dB"} {
			for i, v := range got[g].data {
				if math.Float64bits(v) != math.Float64bits(want[g].data[i]) {
					t.Fatalf("GOMAXPROCS %d: %s[%d] = %v, at GOMAXPROCS 1 %v", procs, name, i, v, want[g].data[i])
				}
			}
		}
	}
}

// BenchmarkConvLayer times one conv layer's Forward and Backward (with
// the input gradient when the layer has one) at the two cnn-dp conv
// shapes, batch 32, on the SIMD and the Go path.
func BenchmarkConvLayer(b *testing.B) {
	shapes := []struct {
		name             string
		cin, hw, cout, k int
		inputGrad        bool
	}{
		{"conv1", 1, 28, 4, 5, false},
		{"conv2", 4, 14, 8, 5, true},
	}
	r := rng.New(43)
	for _, s := range shapes {
		x := FromSlice(sparseVec(r, 32*s.cin*s.hw*s.hw), 32, s.cin, s.hw, s.hw)
		w, bias := randTensor(r, s.cout, s.cin, s.k, s.k), randTensor(r, s.cout)
		dy := randTensor(r, 32, s.cout, s.hw, s.hw)
		dw, db := New(w.shape...), New(s.cout)
		for _, simd := range []bool{true, false} {
			if simd && !haveSIMD {
				continue
			}
			b.Run(s.name+map[bool]string{true: "/simd", false: "/go"}[simd], func(b *testing.B) {
				defer func(old bool) { useSIMD = old }(useSIMD)
				useSIMD = simd
				var ws ConvWorkspace
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ws.Forward(x, w, bias, 1, s.k/2)
					ws.Backward(dy, x, w, dw, db, 1, s.k/2, s.inputGrad)
				}
			})
		}
	}
}
