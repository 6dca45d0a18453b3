package nn

import (
	"repro/internal/rng"
	"repro/internal/tensor"
)

// CNNConfig describes the paper's convolutional model: two 2-D convolution
// layers, one 2-D max-pooling layer, elementwise ReLU, and two linear
// layers (Section IV-A). Channel and hidden widths are configurable so the
// same architecture runs at laptop scale.
type CNNConfig struct {
	InChannels int // image channels (1 grayscale, 3 RGB)
	Height     int // input height
	Width      int // input width
	Classes    int // output classes
	Conv1      int // channels of first conv (paper-scale default 32)
	Conv2      int // channels of second conv (paper-scale default 64)
	Kernel     int // square kernel size (default 5)
	Hidden     int // width of the first linear layer (paper-scale default 512)
}

// withDefaults fills zero fields with the paper-scale defaults.
func (c CNNConfig) withDefaults() CNNConfig {
	if c.Conv1 == 0 {
		c.Conv1 = 32
	}
	if c.Conv2 == 0 {
		c.Conv2 = 64
	}
	if c.Kernel == 0 {
		c.Kernel = 5
	}
	if c.Hidden == 0 {
		c.Hidden = 512
	}
	return c
}

// NewCNN constructs the paper's CNN:
//
//	Conv(k) → ReLU → MaxPool(2,2) → Conv(k) → ReLU → Flatten → Linear → ReLU → Linear
//
// Padding keeps spatial size through the convolutions so any input size with
// H, W divisible by 2 works.
func NewCNN(cfg CNNConfig, r *rng.RNG) *Sequential {
	cfg = cfg.withDefaults()
	pad := cfg.Kernel / 2
	// Spatial flow: conv(pad same) -> H×W, pool -> H/2×W/2, conv(pad same).
	ph, pw := cfg.Height/2, cfg.Width/2
	flat := cfg.Conv2 * ph * pw
	conv1 := NewConv2D(cfg.InChannels, cfg.Conv1, cfg.Kernel, 1, pad, r)
	conv1.noInputGrad = true
	return NewSequential(
		conv1,
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2D(cfg.Conv1, cfg.Conv2, cfg.Kernel, 1, pad, r),
		NewReLU(),
		NewFlatten(),
		NewLinear(flat, cfg.Hidden, r),
		NewReLU(),
		NewLinear(cfg.Hidden, cfg.Classes, r),
	)
}

// NewMLP constructs a multilayer perceptron over flattened inputs; the
// smallest model useful for fast tests and the convex/nonconvex comparisons
// in the paper's problem statement (Eq. 1).
func NewMLP(in int, hidden []int, classes int, r *rng.RNG) *Sequential {
	var layers []Module
	layers = append(layers, NewFlatten())
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewLinear(prev, h, r), NewReLU())
		prev = h
	}
	layers = append(layers, NewLinear(prev, classes, r))
	layers[1].(*Linear).noInputGrad = true
	return NewSequential(layers...)
}

// NewLinearModel constructs the convex case of Eq. (1): a single affine map
// over flattened inputs (multinomial logistic regression under the
// cross-entropy loss).
func NewLinearModel(in, classes int, r *rng.RNG) *Sequential {
	return NewMLP(in, nil, classes, r)
}

// Factory builds fresh model replicas. Every federated client owns its own
// replica; the factory guarantees they agree on architecture.
type Factory func() Module

// CloneInto copies src's parameters into dst. The two models must have the
// same architecture (same flat dimension).
func CloneInto(dst, src Module) {
	SetParams(dst, FlattenParams(src, nil))
}

// Predict returns m's logits for x. It is exactly m.Forward(x), named for
// call sites that only evaluate: the layers still record what a Backward
// would need, and the logits are m's own, valid until its next Forward.
func Predict(m Module, x *tensor.Tensor) *tensor.Tensor {
	return m.Forward(x)
}
