//go:build amd64 && !purego

package tensor

// haveSIMD reports whether the CPU runs AVX2 and the operating system
// saves the YMM registers across context switches.
var haveSIMD = hasAVX2()

// kern4x8 and kern4x4 are the AVX2 micro-kernels of gemm_amd64.s: one
// 4-row × 8-column (4-column) tile of C = A·B, where A's element (r,p) is
// a[r*ai+p*ap], B's row p starts at b[p*bp] and C's row r at c[r*cs].
// Each output is summed over p from +0 in ascending order and then stored,
// or added to C when acc is set.
//
//go:noescape
func kern4x8(k int, a *float64, ai, ap int, b *float64, bp int, c *float64, cs int, acc bool)

//go:noescape
func kern4x4(k int, a *float64, ai, ap int, b *float64, bp int, c *float64, cs int, acc bool)

// kern4x8off is kern4x8 for the implicit-GEMM convolution: A's rows are
// lda apart and contiguous, B's row p starts at b[off[p]], and the sums
// are stored to C's rows (row stride ldc).
//
//go:noescape
func kern4x8off(k int, a *float64, lda int, b *float64, off *int, c *float64, ldc int)

// kern4x8rows and kern4x4rows compute one 4-row × 8-column (4-column)
// tile of the convolution's weight gradient B·dyᵀ with B's four rows read
// straight from the padded image: row r's element j = oy·ow + ox is
// a[dr + oy·lda + ox] for d0 = 0, and j runs over the oh×ow valid outputs
// only. B's row j starts at b[j*bp]. The sums are stored to C's rows (row
// stride cs).
//
//go:noescape
func kern4x8rows(oh, ow int, a *float64, d1, d2, d3, lda int, b *float64, bp int, c *float64, cs int)

//go:noescape
func kern4x4rows(oh, ow int, a *float64, d1, d2, d3, lda int, b *float64, bp int, c *float64, cs int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX, XGETBV is available
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmOS   = 0b110   // XCR0: the OS saves XMM and YMM state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv0()&ymmOS != ymmOS {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
