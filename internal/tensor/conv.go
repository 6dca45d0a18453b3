package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// convBlock is the number of consecutive samples whose weight-gradient
// contributions ConvWorkspace.Backward sums into one partial. Partials are
// then added in block order. The blocks are fixed by the batch, not by the
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
	if stride < 1 || pad < 0 {
		panic(fmt.Sprintf("tensor: Conv2D stride %d pad %d", stride, pad))
	}
	g := convGeom{n: x.shape[0], cin: x.shape[1], h: x.shape[2], w: x.shape[3],
		cout: weight.shape[0], kh: weight.shape[2], kw: weight.shape[3], stride: stride, pad: pad}
	g.oh, g.ow = ConvOut(g.h, g.kh, stride, pad), ConvOut(g.w, g.kw, stride, pad)
	if g.oh <= 0 || g.ow <= 0 {
		panic(fmt.Sprintf("tensor: convolution of [%d %d %d] with kernel %dx%d stride %d pad %d is empty", g.cin, g.h, g.w, g.kh, g.kw, stride, pad))
	}
	return g
}

// rows is the GEMM inner dimension Cin·KH·KW; plane is OH·OW.
func (g convGeom) rows() int  { return g.cin * g.kh * g.kw }
func (g convGeom) plane() int { return g.oh * g.ow }

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

// The convolution is an implicit GEMM. Each output plane is W·B for the
// weight matrix W [Cout, Cin·KH·KW] and the column matrix B whose row
// p = (c, ki, kj) holds, at output (oy, ox), the input pixel
// (oy·stride + ki − pad, ox·stride + kj − pad) of channel c, or +0 outside
// the image. B is never built. A sample is copied once into a zero-padded
// image of stride² phase planes per channel: plane (a, b) of channel c
// holds the padded pixels (stride·u + a, stride·v + b) in an [hs][ws]
// grid. Output (oy, ox) at the "wide" index q = oy·ws + ox then reads row p
// of B at padded[off[p] + q], where
//
//	off[p] = ((c·stride + ki mod stride)·stride + kj mod stride)·hs·ws
//	         + (ki div stride)·ws + kj div stride,
//
// so each row of B is contiguous in q and the kernels find it through the
// offset table. The forward pass computes all oh·ws wide columns (rounded
// up to a whole tile) and drops the ones with ox ≥ ow. Every kept output
// is the same p-ascending sum from +0 of the same products as the
// materialized B, padding included as explicit +0.

// convLayout is the padded-image layout of one convolution geometry.
type convLayout struct {
	hs, ws int   // phase-plane size, ⌈(h+2·pad)/stride⌉ × ⌈(w+2·pad)/stride⌉ or more
	wide   int   // wide output columns oh·ws, rounded up to a multiple of 8
	size   int   // padded-image elements, including a zero tail the last tile reads
	off    []int // off[p], the start of B's row p in the padded image
}

func newConvLayout(g convGeom, off []int) convLayout {
	// The padded image spans every pixel a window reads. ConvOut truncates
	// toward zero, so a kernel wider than the padded input still yields
	// one output, whose window reaches past the padding into more +0s.
	s := g.stride
	hp := max(g.h+2*g.pad, (g.oh-1)*s+g.kh)
	wp := max(g.w+2*g.pad, (g.ow-1)*s+g.kw)
	l := convLayout{hs: (hp + s - 1) / s, ws: (wp + s - 1) / s}
	l.wide = (g.oh*l.ws + 7) &^ 7
	l.off = off[:0]
	l.size = g.cin * s * s * l.hs * l.ws
	for c := 0; c < g.cin; c++ {
		for ki := 0; ki < g.kh; ki++ {
			for kj := 0; kj < g.kw; kj++ {
				o := ((c*s+ki%s)*s+kj%s)*l.hs*l.ws + ki/s*l.ws + kj/s
				l.off = append(l.off, o)
				l.size = max(l.size, o+l.wide)
			}
		}
	}
	return l
}

// fill copies the [cin, h, w] image x into the interior of the padded
// image xp. The border and the tail are never written, so they keep the
// +0s they were cleared to.
func (l *convLayout) fill(xp, x []float64, g convGeom) {
	s := g.stride
	for c := 0; c < g.cin; c++ {
		for iy := 0; iy < g.h; iy++ {
			src := x[(c*g.h+iy)*g.w : (c*g.h+iy+1)*g.w]
			y := iy + g.pad
			for b := 0; b < s; b++ {
				ix := (b - g.pad%s + s) % s // first column of phase b
				dst := xp[((c*s+y%s)*s+b)*l.hs*l.ws+y/s*l.ws+(ix+g.pad)/s:]
				if s == 1 {
					copy(dst, src)
					continue
				}
				for v := 0; ix < g.w; ix, v = ix+s, v+1 {
					dst[v] = src[ix]
				}
			}
		}
	}
}

// ConvWorkspace is the state one convolution layer reuses from step to
// step: the offset table and per-worker padded images and tiles of the
// implicit GEMM, the backward pass's per-block gradient partials, and the
// layer's output and input gradient. The zero value is ready to use;
// buffers grow to the largest batch seen. A workspace serves one layer and
// must not be used concurrently. A tensor that Forward or Backward returns
// is the workspace's own and is valid until the next call of the same
// method.
type ConvWorkspace struct {
	key     convGeom // geometry the padded images are laid out for
	lay     convLayout
	padded  []float64 // per-worker padded images; the border stays +0
	scratch []float64 // per-worker wide outputs and packed panels
	dW, dB  []float64 // per-block weight and bias gradient partials
	y, dx   *Tensor
}

// prepare lays the workspace out for g and at least workers padded images
// and returns the size of one.
func (ws *ConvWorkspace) prepare(g convGeom, workers int) int {
	key := g
	key.n, key.cout = 0, 0
	if key != ws.key || ws.lay.off == nil {
		ws.key, ws.padded = key, ws.padded[:0]
		ws.lay = newConvLayout(g, ws.lay.off)
	}
	if need := workers * ws.lay.size; len(ws.padded) < need {
		ws.padded = grow(ws.padded, need)
		clear(ws.padded)
	}
	return ws.lay.size
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
// and returns y [N, Cout, OH, OW], which the workspace owns. Samples run in
// parallel. Each worker copies its sample into its padded image, computes
// the wide output tile by tile, then compacts it into y and adds the bias
// after the sum.
func (ws *ConvWorkspace) Forward(x, weight, bias *Tensor, stride, pad int) *Tensor {
	g := newConvGeom(x, weight, stride, pad)
	if bias != nil && bias.Size() != g.cout {
		panic(fmt.Sprintf("tensor: Conv2D bias %v for %d output channels", bias.shape, g.cout))
	}
	workers := parallelWorkers(g.n)
	size := ws.prepare(g, workers)
	lay := &ws.lay
	tile := g.cout * lay.wide
	ws.scratch = grow(ws.scratch, workers*tile)
	ws.y = Reuse(ws.y, g.n, g.cout, g.oh, g.ow)
	y, in, plane := ws.y, g.cin*g.h*g.w, g.plane()
	parallelFor(workers, g.n, func(w, i int) {
		xp := ws.padded[w*size : (w+1)*size]
		lay.fill(xp, x.data[i*in:(i+1)*in], g)
		yw := ws.scratch[w*tile : (w+1)*tile]
		gemmOff(yw, weight.data, xp, lay.off, g.cout, g.rows(), lay.wide)
		dst := y.data[i*g.cout*plane : (i+1)*g.cout*plane]
		for co := 0; co < g.cout; co++ {
			for oy := 0; oy < g.oh; oy++ {
				out := dst[(co*g.oh+oy)*g.ow : (co*g.oh+oy+1)*g.ow]
				src := yw[co*lay.wide+oy*lay.ws:][:len(out)]
				if bias == nil {
					copy(out, src)
					continue
				}
				b := bias.data[co]
				for ox, v := range src {
					out[ox] = v + b
				}
			}
		}
	})
	return y
}

// Backward adds the batch's weight gradient to dW and its bias gradient to
// dB (nil for a bias-free layer), given the upstream gradient dy
// [N, Cout, OH, OW] and the input x and weight of the forward pass. It
// returns the input gradient dx [N, Cin, H, W], which the workspace owns,
// when inputGrad is true and nil otherwise.
//
// The batch is cut into convBlock-sample blocks. Each block sums its
// samples' dy·Bᵀ in sample order into a partial; the partials are added
// in block order and the total is added to dW. Blocks run in parallel, but
// the summation order does not depend on how many workers there are.
//
// Every dW element is dy's row times a row of B summed over the valid
// output positions only, in ascending order: a product with a dropped wide
// column could turn the sum into NaN, so weightGrad skips the wide columns.
// dx is Wᵀ·dy scattered into the image: for four rows of B at a time
// the product is computed into a [4, OH·OW] tile and its rows are added to
// dx in ascending p, so every dx element receives its (c, ki, kj)
// contributions in ascending order.
func (ws *ConvWorkspace) Backward(dy, x, weight, dW, dB *Tensor, stride, pad int, inputGrad bool) *Tensor {
	g := newConvGeom(x, weight, stride, pad)
	rows, plane, cout := g.rows(), g.plane(), g.cout
	if dy.Size() != g.n*cout*plane {
		panic(fmt.Sprintf("tensor: Conv2D backward of dy %v does not match x %v", dy.shape, x.shape))
	}
	blocks := (g.n + convBlock - 1) / convBlock
	workers := parallelWorkers(blocks)
	size := ws.prepare(g, workers)
	wsz := cout * rows
	ws.dW = grow(ws.dW, blocks*wsz)
	clear(ws.dW)
	if dB != nil {
		ws.dB = grow(ws.dB, blocks*cout)
		clear(ws.dB)
	}
	var dx *Tensor
	if inputGrad {
		ws.dx = Reuse(ws.dx, g.n, g.cin, g.h, g.w)
		dx = ws.dx
	}
	// Per worker: packed dy, a [4, plane] panel of B's rows (then of
	// Wᵀ·dy) and a [cout, 4] block of dy·Bᵀ.
	per := cout*plane + 4*plane + 4*cout
	ws.scratch = grow(ws.scratch, workers*per)
	in := g.cin * g.h * g.w
	parallelFor(workers, blocks, func(w, b int) {
		xp := ws.padded[w*size : (w+1)*size]
		sc := ws.scratch[w*per : (w+1)*per]
		dyp, panel, t := sc[:cout*plane], sc[cout*plane:cout*plane+4*plane], sc[cout*plane+4*plane:]
		pw := ws.dW[b*wsz : (b+1)*wsz]
		for i := b * convBlock; i < min(g.n, (b+1)*convBlock); i++ {
			dyi := dy.data[i*cout*plane : (i+1)*cout*plane]
			ws.lay.fill(xp, x.data[i*in:(i+1)*in], g)
			ws.weightGrad(pw, dyi, xp, dyp, panel, t, g)
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
				inputGradInto(dx.data[i*in:(i+1)*in], weight.data, dyi, panel, g)
			}
		}
	})
	addBlocks(dW.data, ws.dW, blocks)
	if dB != nil {
		addBlocks(dB.data, ws.dB, blocks)
	}
	return dx
}

// rowDot returns Σ dyRow[j]·B[p][j] over the valid outputs j in ascending
// order, from +0, for B's row p at xp[o:].
func (l *convLayout) rowDot(dyRow, xp []float64, o int, g convGeom) float64 {
	s := 0.0
	for oy := 0; oy < g.oh; oy++ {
		src := xp[o+oy*l.ws : o+oy*l.ws+g.ow]
		for ox, v := range dyRow[oy*g.ow : (oy+1)*g.ow] {
			s += v * src[ox]
		}
	}
	return s
}

// weightGrad adds one sample's dy·Bᵀ to the [cout, rows] partial pw. Every
// element is one sum over the valid outputs in ascending order from +0,
// then added, as gemmNTPacked(dy, B, acc) computes it.
//
// The Go path gathers four rows of B at a time, valid outputs only, into
// the [4, plane] panel and runs gemmNTPacked on it into the [cout, 4] block
// t. The SIMD path packs dy once per sample into [plane][8] (then
// [plane][4]) panels, as simdNT does, and kern4x8rows/kern4x4rows read four
// rows of B straight from the padded image, one output row at a time;
// rowDot sums what the tiles leave. At cnn-dp's channel counts each element
// of B feeds only Cout products, so gathering it costs more than the
// row-walking addressing (BenchmarkConvLayer).
func (ws *ConvWorkspace) weightGrad(pw, dyi, xp, dyp, panel, t []float64, g convGeom) {
	lay, rows, plane, cout := &ws.lay, g.rows(), g.plane(), g.cout
	if !useSIMD {
		for j := 0; j < rows; j += 4 {
			h := min(4, rows-j)
			pn, tj := panel[:h*plane], t[:cout*h]
			lay.gather(pn, xp, j, g)
			gemmNTPacked(tj, dyi, pn, cout, plane, h, false, nil)
			for co := 0; co < cout; co++ {
				for r, v := range tj[co*h : (co+1)*h] {
					pw[co*rows+j+r] += v
				}
			}
		}
		return
	}
	tiledCo := 0
	if rows >= 4 && cout >= 4 {
		for w := 8; w >= 4; w -= 4 {
			for ; tiledCo+w <= cout; tiledCo += w {
				for h := 0; h < w; h += 4 {
					pack4(dyp[tiledCo*plane+h:], dyi[(tiledCo+h)*plane:], plane, w)
				}
			}
		}
	}
	quads := rows &^ 3
	if tiledCo == 0 {
		quads = 0
	}
	var tt [32]float64
	for j := 0; j < quads; j += 4 {
		o := lay.off[j : j+4 : j+4]
		d1, d2, d3 := o[1]-o[0], o[2]-o[0], o[3]-o[0]
		for i, w := 0, 8; i < tiledCo; i += w {
			if i+8 > tiledCo {
				w = 4
			}
			if w == 8 {
				kern4x8rows(g.oh, g.ow, &xp[o[0]], d1, d2, d3, lay.ws, &dyp[i*plane], 8, &tt[0], 8)
			} else {
				kern4x4rows(g.oh, g.ow, &xp[o[0]], d1, d2, d3, lay.ws, &dyp[i*plane], 4, &tt[0], 4)
			}
			for r := range w {
				store4(pw[(i+r)*rows+j:], tt[r], tt[w+r], tt[2*w+r], tt[3*w+r], true)
			}
		}
	}
	for co := 0; co < cout; co++ {
		p := 0
		if co < tiledCo {
			p = quads
		}
		for ; p < rows; p++ {
			pw[co*rows+p] += lay.rowDot(dyi[co*plane:(co+1)*plane], xp, lay.off[p], g)
		}
	}
}

// gather copies the valid outputs of B's rows p0, p0+1, ... from the
// padded image xp into the rows of the [·, plane] panel.
func (l *convLayout) gather(panel, xp []float64, p0 int, g convGeom) {
	plane := g.plane()
	for r := 0; r < len(panel)/plane; r++ {
		o := l.off[p0+r]
		for oy := 0; oy < g.oh; oy++ {
			copy(panel[r*plane+oy*g.ow:r*plane+(oy+1)*g.ow], xp[o+oy*l.ws:])
		}
	}
}

// inputGradInto sets one sample's input gradient dx [cin, h, w] to Wᵀ·dy
// scattered back into the image. For four rows p of Wᵀ at a time it
// computes the [4, plane] tile of Wᵀ·dy and adds each row's valid outputs
// to their input pixels, so every pixel sums its contributions in
// ascending p from +0.
func inputGradInto(dx, weight, dyi, tile []float64, g convGeom) {
	clear(dx)
	rows, plane := g.rows(), g.plane()
	for p0 := 0; p0 < rows; p0 += 4 {
		h := min(4, rows-p0)
		gemmTNBand(tile, weight[p0:], dyi, h, rows, g.cout, plane, false)
		for r := 0; r < h; r++ {
			p := p0 + r
			ci, ki, kj := p/(g.kh*g.kw), p/g.kw%g.kh, p%g.kw
			img := dx[ci*g.h*g.w : (ci+1)*g.h*g.w]
			lo, hi := g.validCols(kj)
			if lo == hi {
				continue
			}
			for oy := 0; oy < g.oh; oy++ {
				iy := oy*g.stride + ki - g.pad
				if iy < 0 || iy >= g.h {
					continue
				}
				dst := img[iy*g.w : (iy+1)*g.w]
				src := tile[r*plane+oy*g.ow : r*plane+(oy+1)*g.ow]
				if g.stride == 1 {
					d := dst[lo+kj-g.pad : hi+kj-g.pad]
					for ox, v := range src[lo:hi] {
						d[ox] += v
					}
					continue
				}
				for ox := lo; ox < hi; ox++ {
					dst[ox*g.stride+kj-g.pad] += src[ox]
				}
			}
		}
	}
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

// parallelWorkers is the number of goroutines parallelFor should spread n
// indices over: GOMAXPROCS, at most n, at least 1.
func parallelWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// parallelFor runs f(w, i) for i in [0,n) on the given number of
// goroutines, which take indices in turn from a shared counter; w in
// [0,workers) names the goroutine, so f can index per-worker scratch.
func parallelFor(workers, n int, f func(w, i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	work := func(w int) {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(w, i)
		}
	}
	for w := 0; w < workers; w++ {
		go work(w)
	}
	wg.Wait()
}
