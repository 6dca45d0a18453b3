//go:build !amd64 || purego

package tensor

// haveSIMD is false where there are no assembly kernels: on other
// architectures, and under the purego build constraint, which builds the
// Go kernels only.
const haveSIMD = false

func kern4x8(k int, a *float64, ai, ap int, b *float64, bp int, c *float64, cs int, acc bool) {
	panic("tensor: no SIMD kernels in this build")
}

func kern4x4(k int, a *float64, ai, ap int, b *float64, bp int, c *float64, cs int, acc bool) {
	panic("tensor: no SIMD kernels in this build")
}

func kern4x8off(k int, a *float64, lda int, b *float64, off *int, c *float64, ldc int) {
	panic("tensor: no SIMD kernels in this build")
}

func kern4x8rows(oh, ow int, a *float64, d1, d2, d3, lda int, b *float64, bp int, c *float64, cs int) {
	panic("tensor: no SIMD kernels in this build")
}

func kern4x4rows(oh, ow int, a *float64, d1, d2, d3, lda int, b *float64, bp int, c *float64, cs int) {
	panic("tensor: no SIMD kernels in this build")
}
