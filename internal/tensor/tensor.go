// Package tensor implements dense, row-major float64 tensors with the
// operations needed to train convolutional neural networks: elementwise
// arithmetic, BLAS-style vector ops, parallel matrix multiplication,
// implicit-GEMM convolution, and max pooling.
//
// It is the substrate standing in for PyTorch's tensor library in this
// reproduction of APPFL. Tensors are contiguous; Reshape returns a view that
// shares storage, Reuse and the layer workspaces (ConvWorkspace,
// PoolWorkspace, Pack) keep storage from call to call, and everything else
// either operates in place or allocates.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major array of float64 values.
type Tensor struct {
	shape []int
	data  []float64
}

// New allocates a zero-filled tensor with the given shape. A tensor with no
// dimensions is a scalar holding one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Formatting a copy keeps shape from escaping through
			// fmt.Sprintf, so callers' shape arguments stay on the stack.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The tensor takes
// ownership of data; it must have exactly the product of the dimensions.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		// A copy, as in New, so shape does not escape.
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (=%d)", len(data), append([]int(nil), shape...), n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Reuse returns a tensor of the given shape for a caller that overwrites
// every element: t itself when it already has that shape, a tensor over
// t's storage when that is large enough, and a new zero tensor otherwise.
// A layer keeps its output in one tensor this way from step to step.
func Reuse(t *Tensor, shape ...int) *Tensor {
	if t != nil && len(t.shape) == len(shape) {
		same := true
		for i, d := range shape {
			same = same && t.shape[i] == d
		}
		if same {
			return t
		}
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if t == nil || cap(t.data) < n {
		return New(shape...)
	}
	return FromSlice(t.data[:n], shape...)
}

// Shape returns the dimensions. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutations are visible
// to the tensor and to any views sharing its storage.
func (t *Tensor) Data() []float64 { return t.data }

// offset converts a multi-index to a flat offset.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + v
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.data))
	copy(d, t.data)
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return &Tensor{shape: s, data: d}
}

// Reshape returns a view with a new shape sharing the same storage. The
// element count must be preserved.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}

// checkSameShape panics unless t and u share a shape.
func (t *Tensor) checkSameShape(u *Tensor, op string) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}

// Add returns t + u elementwise.
func (t *Tensor) Add(u *Tensor) *Tensor {
	t.checkSameShape(u, "Add")
	out := t.Clone()
	for i, v := range u.data {
		out.data[i] += v
	}
	return out
}

// AddInPlace sets t += u elementwise and returns t.
func (t *Tensor) AddInPlace(u *Tensor) *Tensor {
	t.checkSameShape(u, "AddInPlace")
	for i, v := range u.data {
		t.data[i] += v
	}
	return t
}

// Sub returns t - u elementwise.
func (t *Tensor) Sub(u *Tensor) *Tensor {
	t.checkSameShape(u, "Sub")
	out := t.Clone()
	for i, v := range u.data {
		out.data[i] -= v
	}
	return out
}

// SubInPlace sets t -= u elementwise and returns t.
func (t *Tensor) SubInPlace(u *Tensor) *Tensor {
	t.checkSameShape(u, "SubInPlace")
	for i, v := range u.data {
		t.data[i] -= v
	}
	return t
}

// Mul returns the elementwise (Hadamard) product t ⊙ u.
func (t *Tensor) Mul(u *Tensor) *Tensor {
	t.checkSameShape(u, "Mul")
	out := t.Clone()
	for i, v := range u.data {
		out.data[i] *= v
	}
	return out
}

// Scale returns alpha * t.
func (t *Tensor) Scale(alpha float64) *Tensor {
	out := t.Clone()
	for i := range out.data {
		out.data[i] *= alpha
	}
	return out
}

// ScaleInPlace sets t *= alpha and returns t.
func (t *Tensor) ScaleInPlace(alpha float64) *Tensor {
	for i := range t.data {
		t.data[i] *= alpha
	}
	return t
}

// AXPY sets t += alpha * u (the BLAS axpy primitive) and returns t.
func (t *Tensor) AXPY(alpha float64, u *Tensor) *Tensor {
	t.checkSameShape(u, "AXPY")
	for i, v := range u.data {
		t.data[i] += alpha * v
	}
	return t
}

// Dot returns the inner product of t and u viewed as flat vectors.
func (t *Tensor) Dot(u *Tensor) float64 {
	if len(t.data) != len(u.data) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(t.data), len(u.data)))
	}
	s := 0.0
	for i, v := range t.data {
		s += v * u.data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element (0 for an empty tensor).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// ArgMax returns the flat index of the maximum element. Ties resolve to the
// first occurrence. It panics on an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Row returns a view of row i of a rank-2 tensor as a rank-1 tensor sharing
// storage.
func (t *Tensor) Row(i int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a rank-2 tensor")
	}
	cols := t.shape[1]
	return &Tensor{shape: []int{cols}, data: t.data[i*cols : (i+1)*cols]}
}

// Slice returns a view of the i-th sub-tensor along the first axis, sharing
// storage. For a [N, C, H, W] batch it yields sample i as [C, H, W].
func (t *Tensor) Slice(i int) *Tensor {
	if len(t.shape) < 1 {
		panic("tensor: Slice requires rank >= 1")
	}
	if i < 0 || i >= t.shape[0] {
		panic(fmt.Sprintf("tensor: Slice index %d out of bounds for first dim %d", i, t.shape[0]))
	}
	sub := len(t.data) / t.shape[0]
	s := make([]int, len(t.shape)-1)
	copy(s, t.shape[1:])
	return &Tensor{shape: s, data: t.data[i*sub : (i+1)*sub]}
}

// EqualWithin reports whether t and u match elementwise within tol.
func (t *Tensor) EqualWithin(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.data {
		if math.Abs(v-u.data[i]) > tol {
			return false
		}
	}
	return true
}
