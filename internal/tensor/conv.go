package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// convBlock is the number of consecutive samples whose weight-gradient
// contributions Conv2DBackward sums into one partial. Partials are then
// added in block order. The blocks are fixed by the batch, not by the
// worker count, so conv gradients are the same bits at any GOMAXPROCS.
const convBlock = 16

// ConvOut returns the output spatial size of a convolution or pooling with
// the given input size, kernel, stride, and symmetric padding.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// convGeom is the shape of one batched convolution.
type convGeom struct {
	n, cin, h, w, cout, kh, kw, stride, pad, oh, ow int
}

// newConvGeom checks the operands of a batched convolution and returns
// its shape.
func newConvGeom(x, weight *Tensor, stride, pad int) convGeom {
	if x.Rank() != 4 || weight.Rank() != 4 {
		panic("tensor: Conv2D requires x [N,C,H,W] and weight [Cout,Cin,KH,KW]")
	}
	if x.shape[1] != weight.shape[1] {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch input %d weight %d", x.shape[1], weight.shape[1]))
	}
	g := imageGeom(x.shape[1], x.shape[2], x.shape[3], weight.shape[2], weight.shape[3], stride, pad)
	g.n, g.cout = x.shape[0], weight.shape[0]
	return g
}

// imageGeom returns the im2col shape of one [c, h, w] image.
func imageGeom(c, h, w, kh, kw, stride, pad int) convGeom {
	g := convGeom{n: 1, cin: c, h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad,
		oh: ConvOut(h, kh, stride, pad), ow: ConvOut(w, kw, stride, pad)}
	if g.oh <= 0 || g.ow <= 0 {
		panic(fmt.Sprintf("tensor: convolution of [%d %d %d] with kernel %dx%d stride %d pad %d is empty", c, h, w, kh, kw, stride, pad))
	}
	return g
}

// rows is the im2col row count Cin·KH·KW; plane is OH·OW.
func (g convGeom) rows() int  { return g.cin * g.kh * g.kw }
func (g convGeom) plane() int { return g.oh * g.ow }

// Im2Col unrolls one [C, H, W] image into a [C*KH*KW, OH*OW] matrix where
// each column holds the receptive field of one output position. Zero padding
// is applied implicitly.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col requires [C,H,W] input, got %v", x.shape))
	}
	g := imageGeom(x.shape[0], x.shape[1], x.shape[2], kh, kw, stride, pad)
	out := New(g.rows(), g.plane())
	im2col(out.data, x.data, g)
	return out
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) a
// [C*KH*KW, OH*OW] matrix back into a [C, H, W] image. Overlapping
// receptive fields sum, which is exactly the gradient of Im2Col.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	g := imageGeom(c, h, w, kh, kw, stride, pad)
	if cols.Rank() != 2 || cols.shape[0] != g.rows() || cols.shape[1] != g.plane() {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with C=%d H=%d W=%d K=%dx%d", cols.shape, c, h, w, kh, kw))
	}
	out := New(c, h, w)
	col2im(out.data, cols.data, g)
	return out
}

// validCols returns the range [lo,hi) of output columns ox whose input
// column ox·stride + kj − pad lies inside [0, w).
func (g convGeom) validCols(kj int) (lo, hi int) {
	for lo < g.ow && lo*g.stride+kj-g.pad < 0 {
		lo++
	}
	hi = g.ow
	for hi > lo && (hi-1)*g.stride+kj-g.pad >= g.w {
		hi--
	}
	return lo, hi
}

// im2col writes the [rows, plane] im2col matrix of the image x into dst,
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
					if g.stride == 1 {
						copy(out[lo:hi], src[lo+kj-g.pad:])
					} else {
						for ox := lo; ox < hi; ox++ {
							out[ox] = src[ox*g.stride+kj-g.pad]
						}
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

// ConvWorkspace holds the scratch buffers one convolution layer reuses from
// step to step: the im2col matrices of the last forward pass, which its
// backward pass reads, and the backward pass's per-block partials and
// packing panels. The zero value is ready to use; buffers grow to the
// largest batch seen. A workspace serves one layer and must not be used
// concurrently.
type ConvWorkspace struct {
	cols   []float64 // [N, rows, plane] im2col matrices of the last Forward
	dcols  []float64 // per-block [rows, plane] wᵀ·dy scratch
	dW, dB []float64 // per-block weight and bias gradient partials
	pack   []float64 // per-block dy·colsᵀ packing panel
}

// grow returns s resized to n elements, reallocating only when its
// capacity is short. The contents are undefined.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Forward computes the batched 2-D convolution
//
//	x: [N, Cin, H, W], weight: [Cout, Cin, KH, KW], bias: [Cout] (may be nil)
//
// and returns y [N, Cout, OH, OW]. It keeps each sample's im2col matrix in
// the workspace for Backward. Samples run in parallel; each one's product
// is computed serially, straight into its slice of y.
func (ws *ConvWorkspace) Forward(x, weight, bias *Tensor, stride, pad int) *Tensor {
	g := newConvGeom(x, weight, stride, pad)
	rows, plane := g.rows(), g.plane()
	ws.cols = grow(ws.cols, g.n*rows*plane)
	y := New(g.n, g.cout, g.oh, g.ow)
	parallelFor(g.n, func(i int) {
		col := ws.cols[i*rows*plane : (i+1)*rows*plane]
		im2col(col, x.data[i*g.cin*g.h*g.w:(i+1)*g.cin*g.h*g.w], g)
		dst := y.data[i*g.cout*plane : (i+1)*g.cout*plane]
		gemmNN(dst, weight.data, col, 0, g.cout, rows, plane)
		if bias != nil {
			for co, b := range bias.data {
				row := dst[co*plane : (co+1)*plane]
				for j := range row {
					row[j] += b
				}
			}
		}
	})
	return y
}

// Backward adds the batch's weight gradient to dW and its bias gradient to
// dB (nil for a bias-free layer), given the upstream gradient dy
// [N, Cout, OH, OW] and the input x and weight of the last Forward. It
// returns the input gradient dx [N, Cin, H, W] when inputGrad is true and
// nil otherwise.
//
// The batch is cut into convBlock-sample blocks. Each block sums its
// samples' dy·colsᵀ in sample order into a partial; the partials are added
// in block order and the total is added to dW. Blocks run in parallel, but
// the summation order does not depend on how many workers there are.
func (ws *ConvWorkspace) Backward(dy, x, weight, dW, dB *Tensor, stride, pad int, inputGrad bool) *Tensor {
	g := newConvGeom(x, weight, stride, pad)
	rows, plane, cout := g.rows(), g.plane(), g.cout
	if dy.Size() != g.n*cout*plane || len(ws.cols) != g.n*rows*plane {
		panic(fmt.Sprintf("tensor: Conv2D backward of dy %v does not match the last forward pass", dy.shape))
	}
	wsz, pl := cout*rows, packLen(plane)
	blocks := (g.n + convBlock - 1) / convBlock
	ws.pack = grow(ws.pack, blocks*pl)
	ws.dW = grow(ws.dW, blocks*wsz)
	clear(ws.dW)
	if dB != nil {
		ws.dB = grow(ws.dB, blocks*cout)
		clear(ws.dB)
	}
	var dx *Tensor
	if inputGrad {
		dx = New(g.n, g.cin, g.h, g.w)
		ws.dcols = grow(ws.dcols, blocks*rows*plane)
	}
	parallelFor(blocks, func(b int) {
		pw := ws.dW[b*wsz : (b+1)*wsz]
		pk := ws.pack[b*pl : (b+1)*pl]
		for i := b * convBlock; i < min(g.n, (b+1)*convBlock); i++ {
			dyi := dy.data[i*cout*plane : (i+1)*cout*plane]
			col := ws.cols[i*rows*plane : (i+1)*rows*plane]
			gemmNTPacked(pw, dyi, col, cout, plane, rows, true, pk)
			if dB != nil {
				pb := ws.dB[b*cout : (b+1)*cout]
				for co := range pb {
					s := 0.0
					for _, v := range dyi[co*plane : (co+1)*plane] {
						s += v
					}
					pb[co] += s
				}
			}
			if dx != nil {
				dcols := ws.dcols[b*rows*plane : (b+1)*rows*plane]
				gemmTN(dcols, weight.data, dyi, rows, cout, plane, false)
				col2im(dx.data[i*g.cin*g.h*g.w:(i+1)*g.cin*g.h*g.w], dcols, g)
			}
		}
	})
	addBlocks(dW.data, ws.dW, blocks)
	if dB != nil {
		addBlocks(dB.data, ws.dB, blocks)
	}
	return dx
}

// addBlocks sums the len(dst)-sized partials in parts, in order, and adds
// the total to dst. An empty batch has no blocks and adds nothing.
func addBlocks(dst, parts []float64, blocks int) {
	if blocks == 0 {
		return
	}
	total := parts[:len(dst)]
	for b := 1; b < blocks; b++ {
		for j, v := range parts[b*len(dst) : (b+1)*len(dst)] {
			total[j] += v
		}
	}
	for j, v := range total {
		dst[j] += v
	}
}

// Conv2DForward computes a batched 2-D convolution.
//
//	x: [N, Cin, H, W], weight: [Cout, Cin, KH, KW], bias: [Cout] (may be nil)
//
// Returns y [N, Cout, OH, OW] and the per-sample im2col matrices, which the
// backward pass reuses.
func Conv2DForward(x, weight, bias *Tensor, stride, pad int) (y *Tensor, cols []*Tensor) {
	var ws ConvWorkspace
	y = ws.Forward(x, weight, bias, stride, pad)
	g := newConvGeom(x, weight, stride, pad)
	size := g.rows() * g.plane()
	cols = make([]*Tensor, g.n)
	for i := range cols {
		cols[i] = FromSlice(ws.cols[i*size:(i+1)*size], g.rows(), g.plane())
	}
	return y, cols
}

// Conv2DBackward computes gradients for the batched convolution given the
// upstream gradient dy [N, Cout, OH, OW] and the im2col matrices from the
// forward pass. It returns dx [N, Cin, H, W], dWeight, and dBias; dBias is
// nil when bias was nil.
func Conv2DBackward(dy, x, weight *Tensor, cols []*Tensor, hasBias bool, stride, pad int) (dx, dWeight, dBias *Tensor) {
	var ws ConvWorkspace
	if len(cols) > 0 {
		ws.cols = make([]float64, 0, len(cols)*cols[0].Size())
	}
	for _, c := range cols {
		ws.cols = append(ws.cols, c.data...)
	}
	dWeight = New(weight.shape...)
	if hasBias {
		dBias = New(weight.shape[0])
	}
	dx = ws.Backward(dy, x, weight, dWeight, dBias, stride, pad, true)
	return dx, dWeight, dBias
}

// parallelFor runs f(i) for i in [0,n) across up to GOMAXPROCS goroutines,
// which take indices in turn from a shared counter.
func parallelFor(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(i)
		}
	}
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
}
