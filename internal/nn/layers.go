package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Linear is a fully connected layer y = x·Wᵀ + b for x [N, In].
type Linear struct {
	In, Out int
	Weight  *Parameter // [Out, In]
	Bias    *Parameter // [Out]

	lastInput   *tensor.Tensor
	pack        tensor.Pack    // x·Wᵀ packing panel, reused across steps
	y, dx       *tensor.Tensor // output and input gradient, reused across steps
	noInputGrad bool           // bottom layer of a built model: Backward returns nil
}

// NewLinear constructs a Linear layer with Kaiming-uniform initialization.
func NewLinear(in, out int, r *rng.RNG) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		Weight: &Parameter{
			Name:  fmt.Sprintf("linear%dx%d.weight", out, in),
			Value: tensor.New(out, in),
			Grad:  tensor.New(out, in),
		},
		Bias: &Parameter{
			Name:  fmt.Sprintf("linear%dx%d.bias", out, in),
			Value: tensor.New(out),
			Grad:  tensor.New(out),
		},
	}
	bound := math.Sqrt(6.0 / float64(in))
	r.FillUniform(l.Weight.Value.Data(), -bound, bound)
	bb := 1.0 / math.Sqrt(float64(in))
	r.FillUniform(l.Bias.Value.Data(), -bb, bb)
	return l
}

// Forward computes x·Wᵀ + b.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N,%d], got %v", l.In, x.Shape()))
	}
	l.lastInput = x
	l.y = l.pack.MatMulTransB(l.y, x, l.Weight.Value) // [N, Out]
	addRows(l.y.Data(), l.Bias.Value.Data())
	return l.y
}

// Backward accumulates dW = dyᵀ·x, db = Σ dy and returns dx = dy·W, or nil
// at the bottom layer of a model built by NewMLP or NewLinearModel.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.lastInput == nil {
		panic("nn: Linear.Backward before Forward")
	}
	tensor.AddMatMulTransA(l.Weight.Grad, dy, l.lastInput)
	sumRows(l.Bias.Grad.Data(), dy.Data())
	if l.noInputGrad {
		return nil
	}
	l.dx = tensor.MatMulInto(l.dx, dy, l.Weight.Value)
	return l.dx
}

// addRows adds v to every len(v)-long row of m.
func addRows(m, v []float64) {
	for ; len(v) > 0 && len(m) >= len(v); m = m[len(v):] {
		for j, b := range v {
			m[j] += b
		}
	}
}

// sumRows adds every len(v)-long row of m to v, in row order.
func sumRows(v, m []float64) {
	for ; len(v) > 0 && len(m) >= len(v); m = m[len(v):] {
		for j, x := range m[:len(v)] {
			v[j] += x
		}
	}
}

// Params returns the layer's weight and bias.
func (l *Linear) Params() []*Parameter { return []*Parameter{l.Weight, l.Bias} }

// Conv2D is a 2-D convolution over [N, Cin, H, W] inputs.
type Conv2D struct {
	InChannels, OutChannels int
	Kernel, Stride, Pad     int
	Weight                  *Parameter // [Cout, Cin, K, K]
	Bias                    *Parameter // [Cout]

	lastInput   *tensor.Tensor
	ws          tensor.ConvWorkspace // padded images, gradient partials, output and input gradient
	noInputGrad bool                 // bottom layer of a built model: Backward returns nil
}

// NewConv2D constructs a Conv2D layer with Kaiming-uniform initialization.
func NewConv2D(inC, outC, kernel, stride, pad int, r *rng.RNG) *Conv2D {
	c := &Conv2D{
		InChannels:  inC,
		OutChannels: outC,
		Kernel:      kernel,
		Stride:      stride,
		Pad:         pad,
		Weight: &Parameter{
			Name:  fmt.Sprintf("conv%dx%dk%d.weight", outC, inC, kernel),
			Value: tensor.New(outC, inC, kernel, kernel),
			Grad:  tensor.New(outC, inC, kernel, kernel),
		},
		Bias: &Parameter{
			Name:  fmt.Sprintf("conv%dx%dk%d.bias", outC, inC, kernel),
			Value: tensor.New(outC),
			Grad:  tensor.New(outC),
		},
	}
	fanIn := float64(inC * kernel * kernel)
	bound := math.Sqrt(6.0 / fanIn)
	r.FillUniform(c.Weight.Value.Data(), -bound, bound)
	bb := 1.0 / math.Sqrt(fanIn)
	r.FillUniform(c.Bias.Value.Data(), -bb, bb)
	return c
}

// Forward applies the convolution.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InChannels {
		panic(fmt.Sprintf("nn: Conv2D expects [N,%d,H,W], got %v", c.InChannels, x.Shape()))
	}
	c.lastInput = x
	return c.ws.Forward(x, c.Weight.Value, c.Bias.Value, c.Stride, c.Pad)
}

// Backward accumulates weight/bias gradients and returns dx, or nil at the
// bottom layer of a model built by NewCNN.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if c.lastInput == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	return c.ws.Backward(dy, c.lastInput, c.Weight.Value, c.Weight.Grad, c.Bias.Grad, c.Stride, c.Pad, !c.noInputGrad)
}

// Params returns the layer's weight and bias.
func (c *Conv2D) Params() []*Parameter { return []*Parameter{c.Weight, c.Bias} }

// ReLU is the elementwise rectifier max(0, x).
type ReLU struct {
	y, dx *tensor.Tensor // output and input gradient, reused across steps
}

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies the rectifier: x where x > 0, +0 elsewhere (NaN too).
func (a *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.y = tensor.Reuse(a.y, x.Shape()...)
	y := a.y.Data()
	for i, v := range x.Data() {
		y[i] = math.Float64frombits(math.Float64bits(v) & positive(v))
	}
	return a.y
}

// positive returns an all-ones mask when v > 0 and zero otherwise. The
// rectifier selects with it instead of branching: about half of the
// activations are positive, in no pattern a branch predictor learns, and
// the select takes about a tenth off the cnn-dp round (perfbench).
func positive(v float64) uint64 {
	m := uint64(0)
	if v > 0 {
		m = ^uint64(0)
	}
	return m
}

// Backward passes dy where the input was positive and +0 elsewhere. The
// output is positive exactly where the input was, so it is the mask.
func (a *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if a.y == nil || a.y.Size() != dy.Size() {
		panic("nn: ReLU.Backward size mismatch with last Forward")
	}
	a.dx = tensor.Reuse(a.dx, dy.Shape()...)
	dx, y := a.dx.Data(), a.y.Data()
	for i, g := range dy.Data() {
		dx[i] = math.Float64frombits(math.Float64bits(g) & positive(y[i]))
	}
	return a.dx
}

// Params returns nil; ReLU has no parameters.
func (a *ReLU) Params() []*Parameter { return nil }

// MaxPool2D applies max pooling with a square kernel.
type MaxPool2D struct {
	Kernel, Stride int

	ws tensor.PoolWorkspace // output, argmax and input gradient, reused across steps
}

// NewMaxPool2D constructs a pooling layer.
func NewMaxPool2D(kernel, stride int) *MaxPool2D {
	return &MaxPool2D{Kernel: kernel, Stride: stride}
}

// Forward pools the input.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	return p.ws.Forward(x, p.Kernel, p.Stride)
}

// Backward routes gradients to the max positions of the last Forward.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return p.ws.Backward(dy)
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Parameter { return nil }

// Flatten reshapes [N, ...] to [N, prod(...)].
type Flatten struct {
	inShape []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	n := x.Dim(0)
	return x.Reshape(n, x.Size()/max(n, 1))
}

// Backward restores the original shape. A nil dy, from a layer above that
// computes no input gradient, passes through as nil.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if dy == nil {
		return nil
	}
	return dy.Reshape(f.inShape...)
}

// Params returns nil; flatten has no parameters.
func (f *Flatten) Params() []*Parameter { return nil }

// Sequential chains modules.
type Sequential struct {
	Layers []Module
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Module) *Sequential { return &Sequential{Layers: layers} }

// Forward applies the layers in order.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward applies the layers' backward passes in reverse order.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params concatenates all layer parameters in order.
func (s *Sequential) Params() []*Parameter {
	var out []*Parameter
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
