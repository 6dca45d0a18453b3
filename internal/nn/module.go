// Package nn implements the neural-network layer library used by the APPFL
// reproduction: Conv2D, Linear, ReLU, MaxPool2D, Flatten, and a Sequential
// container, with manually derived backward passes and a softmax
// cross-entropy loss. It stands in for PyTorch's torch.nn.
//
// Layers are stateful: Forward caches whatever Backward needs, and Conv2D,
// ReLU, MaxPool2D and Linear keep their outputs and input gradients in
// buffers of their own that every step reuses. A module must therefore not
// be shared across concurrent training loops. Every federated client owns
// its own model replica (see CloneInto), exactly as each APPFL client
// process owns its own torch module.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Parameter is one trainable tensor with its gradient accumulator.
type Parameter struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Module is the interface every layer and model implements. Backward takes
// the gradient of the loss with respect to the module output and returns the
// gradient with respect to the module input, accumulating parameter
// gradients along the way.
//
// At a model's input layer that gradient is the one with respect to the
// data, which no training loop reads. The bottom layer of every model built
// by NewCNN, NewMLP and NewLinearModel skips computing it, so their Backward
// returns nil; a Sequential assembled from NewConv2D or NewLinear layers by
// hand returns it.
//
// A tensor that Forward returns is valid until that module's next Forward,
// and one that Backward returns until its next Backward: a layer may write
// its next result into the same storage. A caller that keeps a result
// across calls copies it (Tensor.Clone). Callers must not write to a result; a
// layer's Backward may read the output its Forward returned.
type Module interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Parameter
}

// ZeroGrad clears every parameter gradient of m.
func ZeroGrad(m Module) {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of trainable scalars in m. This is the
// dimension of the flat vectors exchanged by the federated algorithms.
func NumParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Size()
	}
	return n
}

// FlattenParams copies all parameter values of m into dst (allocating only
// when dst's capacity is insufficient) in Params() order and returns it.
func FlattenParams(m Module, dst []float64) []float64 {
	dst = sizeFor(dst, NumParams(m))
	off := 0
	for _, p := range m.Params() {
		off += copy(dst[off:], p.Value.Data())
	}
	return dst
}

// FlattenGrads copies all parameter gradients of m into dst in Params()
// order and returns it, reusing dst's capacity like FlattenParams.
func FlattenGrads(m Module, dst []float64) []float64 {
	dst = sizeFor(dst, NumParams(m))
	off := 0
	for _, p := range m.Params() {
		off += copy(dst[off:], p.Grad.Data())
	}
	return dst
}

// sizeFor resizes dst to length n, allocating only when the capacity is
// insufficient. A dst whose length differs but whose capacity suffices is
// reused — the length-equality test this replaces silently reallocated a
// perfectly good buffer on every call whose caller trimmed or grew it.
func sizeFor(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// SetParams loads the flat vector src into the parameters of m. It panics if
// the length does not match NumParams(m).
func SetParams(m Module, src []float64) {
	n := NumParams(m)
	if len(src) != n {
		panic(fmt.Sprintf("nn: SetParams length %d does not match model size %d", len(src), n))
	}
	off := 0
	for _, p := range m.Params() {
		off += copy(p.Value.Data(), src[off:off+p.Value.Size()])
	}
}
