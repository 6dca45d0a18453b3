package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// The dense kernels below share one contract. Every output element is a
// single inner product summed over p in ascending order, starting from +0;
// the kernel then either stores it or adds it to the destination ("sum
// first, then add"). Two implementations keep it:
//
//   - On amd64 CPUs with AVX2 (checked once at init with CPUID and XGETBV),
//     assembly micro-kernels compute 4-row × 8-column tiles, and 4×4 tiles
//     for a 4-column remainder. Each step broadcasts one A element per row
//     and multiplies it into a contiguous 4- or 8-wide row of B, then adds
//     the products into the accumulators: every SIMD lane is a different
//     output, and the multiply and the add are separate instructions, never
//     a fused multiply-add. A·Bᵀ has no contiguous B row, so its kernel
//     packs 8 (then 4) rows of A transposed into a panel and computes tiles
//     of Cᵀ = B·Aᵀ, which it stores or adds into C transposed.
//   - Elsewhere, and under the purego build constraint, Go kernels compute
//     2-row × 4-column register tiles: eight accumulators and six operands
//     per step, which amd64's fifteen usable XMM registers hold with at
//     most a few spills. They are also the reference the assembly is
//     tested against.
//
// Remainder rows and columns are summed one element at a time in the same
// order. Tiling changes which products share a loop iteration, never an
// output's summation order, so results are bit-identical to a scalar
// p-ascending loop for finite inputs, on either path.

// useSIMD selects the assembly kernels. It is haveSIMD, and only tests
// change it, to run both paths on the same inputs.
var useSIMD = haveSIMD

// packLen is the length of the panel gemmNT packs A into for an inner
// dimension k: none on the Go path.
func packLen(k int) int {
	if useSIMD {
		return 8 * k
	}
	return 0
}

// parallelThreshold is the number of multiply-adds below which MatMul runs
// serially; spawning goroutines for tiny products costs more than it saves.
const parallelThreshold = 64 * 1024

// MatMul returns the matrix product A·B for rank-2 tensors A [m,k] and
// B [k,n]. Large products are partitioned by output row across
// runtime.GOMAXPROCS workers; each row is computed whole by one worker, so
// the split does not change the result. Each worker's rows are a multiple
// of four, so only the last one has rows the 4-row tiles leave over.
func MatMul(a, b *Tensor) *Tensor { return MatMulInto(nil, a, b) }

// MatMulInto is MatMul writing into Reuse(dst, m, n), which it returns.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v x %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	out := Reuse(dst, m, n)
	workers := runtime.GOMAXPROCS(0)
	if m*n*k < parallelThreshold || workers < 2 || m < 2 {
		gemmNN(out.data, a.data, b.data, 0, m, k, n)
		return out
	}
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := ((m+workers-1)/workers + 3) &^ 3
	for lo := 0; lo < m; lo += chunk {
		hi := min(lo+chunk, m)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			gemmNN(out.data, a.data, b.data, lo, hi, k, n)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// MatMulTransA returns Aᵀ·B for A [k,m], B [k,n] without materializing the
// transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := transADims(a, b)
	out := New(m, n)
	gemmTN(out.data, a.data, b.data, m, k, n, false)
	return out
}

// AddMatMulTransA adds Aᵀ·B to dst [m,n] for A [k,m], B [k,n]. Each
// product is summed in full before it is added, so dst ends on the same
// bits as dst.AddInPlace(MatMulTransA(a, b)) without the temporary.
func AddMatMulTransA(dst, a, b *Tensor) {
	k, m, n := transADims(a, b)
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: AddMatMulTransA destination %v, want [%d %d]", dst.shape, m, n))
	}
	gemmTN(dst.data, a.data, b.data, m, k, n, true)
}

func transADims(a, b *Tensor) (k, m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransA requires rank-2 operands")
	}
	k, m = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulTransA dimension mismatch %v x %v", a.shape, b.shape))
	}
	return k, m, b.shape[1]
}

// MatMulTransB returns A·Bᵀ for A [m,k], B [n,k] without materializing the
// transpose. It packs A into a new panel; a caller that multiplies
// repeatedly keeps a Pack instead.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := transBDims(a, b)
	out := New(m, n)
	gemmNT(out.data, a.data, b.data, m, k, n, false)
	return out
}

// Pack is the panel A·Bᵀ packs rows of A into, kept by its owner from call
// to call. The zero value is ready to use; a Pack must not be used
// concurrently.
type Pack struct{ panel []float64 }

// MatMulTransB returns A·Bᵀ like the package-level MatMulTransB, packing
// into p's panel and writing into Reuse(dst, m, n).
func (p *Pack) MatMulTransB(dst, a, b *Tensor) *Tensor {
	m, k, n := transBDims(a, b)
	p.panel = grow(p.panel, packLen(k))
	out := Reuse(dst, m, n)
	gemmNTPacked(out.data, a.data, b.data, m, k, n, false, p.panel)
	return out
}

func transBDims(a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransB requires rank-2 operands")
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulTransB dimension mismatch %v x %v", a.shape, b.shape))
	}
	return m, k, b.shape[0]
}

// gemmNN sets rows [lo,hi) of C [m,n] to A·B for A [m,k], B [k,n].
func gemmNN(c, a, b []float64, lo, hi, k, n int) {
	if useSIMD {
		tiled := simdRows(c, a, b, lo, hi, k, n, k, 1, false)
		edges(c, a, b, lo, tiled, hi, n, k, layout{k, 1, 1, n}, false)
		return
	}
	i := lo
	for ; i+1 < hi && k > 0; i += 2 { // at k = 0, b may be empty: edges writes the zeros
		a0 := a[i*k : i*k+k]
		a1 := a[i*k+k : i*k+2*k]
		a1 = a1[:len(a0)]
		for j := 0; j+3 < n; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			bj, o := b[j:], 0
			for p, x0 := range a0 {
				x1 := a1[p]
				bp := bj[o : o+4 : o+4]
				o += n
				s00 += x0 * bp[0]
				s10 += x1 * bp[0]
				s01 += x0 * bp[1]
				s11 += x1 * bp[1]
				s02 += x0 * bp[2]
				s12 += x1 * bp[2]
				s03 += x0 * bp[3]
				s13 += x1 * bp[3]
			}
			store4(c[i*n+j:], s00, s01, s02, s03, false)
			store4(c[i*n+n+j:], s10, s11, s12, s13, false)
		}
	}
	edges(c, a, b, lo, i, hi, n, k, layout{k, 1, 1, n}, false)
}

// gemmTN sets C [m,n] to Aᵀ·B for A [k,m], B [k,n], or adds it to C when
// acc is true.
func gemmTN(c, a, b []float64, m, k, n int, acc bool) { gemmTNBand(c, a, b, m, m, k, n, acc) }

// gemmTNBand is gemmTN for the first m columns of an A whose rows are lda
// apart: C [m,n] = A[:, :m]ᵀ·B.
func gemmTNBand(c, a, b []float64, m, lda, k, n int, acc bool) {
	if useSIMD {
		tiled := simdRows(c, a, b, 0, m, k, n, 1, lda, acc)
		edges(c, a, b, 0, tiled, m, n, k, layout{1, lda, 1, n}, acc)
		return
	}
	i := 0
	for ; i+1 < m; i += 2 {
		for j := 0; j+3 < n; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for p := 0; p < k; p++ {
				ap := a[p*lda+i : p*lda+i+2 : p*lda+i+2]
				bp := b[p*n+j : p*n+j+4 : p*n+j+4]
				x0, x1 := ap[0], ap[1]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				s00 += x0 * b0
				s01 += x0 * b1
				s02 += x0 * b2
				s03 += x0 * b3
				s10 += x1 * b0
				s11 += x1 * b1
				s12 += x1 * b2
				s13 += x1 * b3
			}
			store4(c[i*n+j:], s00, s01, s02, s03, acc)
			store4(c[i*n+n+j:], s10, s11, s12, s13, acc)
		}
	}
	edges(c, a, b, 0, i, m, n, k, layout{1, lda, 1, n}, acc)
}

// gemmOff sets C [m,n] to A·B for A [m,k] and the B whose row p starts at
// b[off[p]]: B's element (p,j) is b[off[p]+j]. This is the implicit-GEMM
// form of the convolution, with B read straight from the padded image. n
// must be a multiple of 8: the caller rounds its wide columns up to whole
// tiles and drops the extra ones. The SIMD path computes 4×8 tiles with
// kern4x8off, the Go path 2×4 tiles, and rows the tiles leave over are
// summed one element at a time; every output is one p-ascending sum from
// +0 of A's element times B's, then stored.
func gemmOff(c, a, b []float64, off []int, m, k, n int) {
	if n%8 != 0 || len(off) != k {
		panic(fmt.Sprintf("tensor: gemmOff n=%d off %d for k=%d", n, len(off), k))
	}
	for _, o := range off { // the kernels do not check bounds
		if o < 0 || o+n > len(b) {
			panic(fmt.Sprintf("tensor: gemmOff row offset %d + %d outside B of %d", o, n, len(b)))
		}
	}
	i := 0
	if useSIMD && k > 0 && m >= 4 {
		_, _ = a[m*k-1], c[m*n-1]
		for ; i+4 <= m; i += 4 {
			for j := 0; j < n; j += 8 {
				kern4x8off(k, &a[i*k], k, &b[j], &off[0], &c[i*n+j], n)
			}
		}
	}
	for ; i+1 < m; i += 2 {
		a0 := a[i*k : i*k+k]
		a1 := a[i*k+k : i*k+2*k]
		a1, off := a1[:len(a0)], off[:len(a0)]
		for j := 0; j < n; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for p, x0 := range a0 {
				x1 := a1[p]
				o := off[p] + j
				bp := b[o : o+4 : o+4]
				s00 += x0 * bp[0]
				s10 += x1 * bp[0]
				s01 += x0 * bp[1]
				s11 += x1 * bp[1]
				s02 += x0 * bp[2]
				s12 += x1 * bp[2]
				s03 += x0 * bp[3]
				s13 += x1 * bp[3]
			}
			store4(c[i*n+j:], s00, s01, s02, s03, false)
			store4(c[i*n+n+j:], s10, s11, s12, s13, false)
		}
	}
	for ; i < m; i++ {
		ai := a[i*k : i*k+k]
		for j := 0; j < n; j++ {
			s := 0.0
			for p, v := range ai {
				s += v * b[off[p]+j]
			}
			c[i*n+j] = s
		}
	}
}

// gemmNT sets C [m,n] to A·Bᵀ for A [m,k], B [n,k], or adds it to C when
// acc is true, packing A into a new panel on the SIMD path.
func gemmNT(c, a, b []float64, m, k, n int, acc bool) {
	gemmNTPacked(c, a, b, m, k, n, acc, make([]float64, packLen(k)))
}

// gemmNTPacked is gemmNT packing into panel, which holds at least
// packLen(k) elements.
func gemmNTPacked(c, a, b []float64, m, k, n int, acc bool, panel []float64) {
	if useSIMD {
		tiled := simdNT(c, a, b, m, k, n, acc, panel)
		edges(c, a, b, 0, tiled, m, n, k, layout{k, 1, k, 1}, acc)
		return
	}
	i := 0
	for ; i+1 < m; i += 2 {
		a0 := a[i*k : i*k+k]
		a1 := a[i*k+k : i*k+2*k]
		a1 = a1[:len(a0)]
		for j := 0; j+3 < n; j += 4 {
			b0 := b[j*k : j*k+k]
			b1 := b[j*k+k : j*k+2*k]
			b2 := b[j*k+2*k : j*k+3*k]
			b3 := b[j*k+3*k : j*k+4*k]
			b0, b1, b2, b3 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)], b3[:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for p, x0 := range a0 {
				x1 := a1[p]
				y0, y1, y2, y3 := b0[p], b1[p], b2[p], b3[p]
				s00 += x0 * y0
				s01 += x0 * y1
				s02 += x0 * y2
				s03 += x0 * y3
				s10 += x1 * y0
				s11 += x1 * y1
				s12 += x1 * y2
				s13 += x1 * y3
			}
			store4(c[i*n+j:], s00, s01, s02, s03, acc)
			store4(c[i*n+n+j:], s10, s11, s12, s13, acc)
		}
	}
	edges(c, a, b, 0, i, m, n, k, layout{k, 1, k, 1}, acc)
}

// simdRows computes the 4-row tiles of rows [lo,hi) of C [·,n] = A·B with
// the assembly kernels, for A's element (i,p) at a[i*ai+p*ap] and B [k,n]:
// 4×8 tiles, then a 4×4 tile when n mod 8 ≥ 4. It returns the end of the
// tiled rows, leaving the rest and the last n mod 4 columns to edges.
func simdRows(c, a, b []float64, lo, hi, k, n, ai, ap int, acc bool) int {
	if k == 0 || n < 4 || hi-lo < 4 {
		return lo
	}
	tiled := lo + (hi-lo)&^3
	// The kernels do not check bounds: these cover every element they touch.
	_, _, _ = a[(tiled-1)*ai+(k-1)*ap], b[k*n-1], c[tiled*n-1]
	for i := lo; i < tiled; i += 4 {
		j := 0
		for ; j+8 <= n; j += 8 {
			kern4x8(k, &a[i*ai], ai, ap, &b[j], n, &c[i*n+j], n, acc)
		}
		if j+4 <= n {
			kern4x4(k, &a[i*ai], ai, ap, &b[j], n, &c[i*n+j], n, acc)
		}
	}
	return tiled
}

// simdNT computes the 4-row tiles of C [m,n] = A·Bᵀ for A [m,k], B [n,k]
// with the assembly kernels. It packs 8 rows of A (then 4) transposed into
// a [k][8] ([k][4]) panel, computes 4×8 (4×4) tiles of Cᵀ = B·Aᵀ with B's
// rows as the broadcast operand, and stores or adds each tile into C
// transposed. It returns the end of the tiled rows, leaving the rest and
// the last n mod 4 columns to edges.
func simdNT(c, a, b []float64, m, k, n int, acc bool, panel []float64) int {
	if k == 0 || n < 4 || m < 4 {
		return 0
	}
	_, _, _ = a[m*k-1], b[n*k-1], c[m*n-1]
	var t [32]float64
	i := 0
	for w := 8; w >= 4; w -= 4 {
		for ; i+w <= m; i += w {
			pk := panel[:w*k]
			for h := 0; h < w; h += 4 {
				pack4(pk[h:], a[(i+h)*k:], k, w)
			}
			for j := 0; j+4 <= n; j += 4 {
				if w == 8 {
					kern4x8(k, &b[j*k], k, 1, &pk[0], 8, &t[0], 8, false)
				} else {
					kern4x4(k, &b[j*k], k, 1, &pk[0], 4, &t[0], 4, false)
				}
				for r := range w {
					store4(c[(i+r)*n+j:], t[r], t[w+r], t[2*w+r], t[3*w+r], acc)
				}
			}
		}
	}
	return i
}

// pack4 copies the first four rows of A [·,k] in a, transposed, into the
// first four columns of the [k][w] panel pk.
func pack4(pk, a []float64, k, w int) {
	r0, r1, r2, r3 := a[:k], a[k:2*k], a[2*k:3*k], a[3*k:4*k]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	for p, v := range r0 {
		q := pk[p*w : p*w+4 : p*w+4]
		q[0], q[1], q[2], q[3] = v, r1[p], r2[p], r3[p]
	}
}

// store4 writes one tile row s0..s3 to c[0:4], or adds it when acc is true.
func store4(c []float64, s0, s1, s2, s3 float64, acc bool) {
	c = c[:4]
	if acc {
		c[0] += s0
		c[1] += s1
		c[2] += s2
		c[3] += s3
	} else {
		c[0], c[1], c[2], c[3] = s0, s1, s2, s3
	}
}

// layout gives the strides of one kernel's operands: A's element (i,p) is
// a[i*ai + p*ap] and B's element (p,j) is b[p*bp + j*bj].
type layout struct{ ai, ap, bj, bp int }

// edges computes the outputs the tiles left out, one scalar inner
// product each, in the same order: every column of the rows [tiled,hi)
// and the last n mod 4 columns of the tiled rows [lo,tiled). Both paths'
// tiles cover the first n - n mod 4 columns of the rows they tile.
func edges(c, a, b []float64, lo, tiled, hi, n, k int, l layout, acc bool) {
	for i := lo; i < hi; i++ {
		j := n - n%4
		if i >= tiled {
			j = 0
		}
		for ; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*l.ai+p*l.ap] * b[p*l.bp+j*l.bj]
			}
			if acc {
				c[i*n+j] += s
			} else {
				c[i*n+j] = s
			}
		}
	}
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}
