package tensor

import (
	"fmt"
	"sync"
)

// ---------------------------------------------------------------------------
// Pooled scratch buffers.
//
// The federated hot path moves O(dim) vectors every round — encode/decode
// scratch, downlink code buffers, densified payloads. These free-list
// pools let steady-state rounds recycle those buffers instead of
// re-allocating them per message. Contents of a Get buffer are undefined;
// callers must fully overwrite the range they use. Putting a buffer while
// any reference to it is still live is a correctness bug on the caller.

var (
	f64Pool  sync.Pool // of *[]float64
	bytePool sync.Pool // of *[]byte
)

// GetF64 returns a scratch []float64 of length n with undefined contents.
func GetF64(n int) []float64 {
	if v := f64Pool.Get(); v != nil {
		if s := *v.(*[]float64); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

// PutF64 recycles a buffer obtained from GetF64 (or anywhere else — the
// pool only cares about capacity). The caller must not use s afterwards.
func PutF64(s []float64) {
	if cap(s) == 0 {
		return
	}
	f64Pool.Put(&s)
}

// GetBytes returns a scratch []byte of length n with undefined contents.
func GetBytes(n int) []byte {
	if v := bytePool.Get(); v != nil {
		if s := *v.(*[]byte); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]byte, n)
}

// PutBytes recycles a buffer obtained from GetBytes.
func PutBytes(s []byte) {
	if cap(s) == 0 {
		return
	}
	bytePool.Put(&s)
}

// PoolWorkspace is the state of one max-pooling layer, reused from step to
// step: its output, the argmax of every output and its input gradient.
// The zero value is ready to use. A tensor that Forward or Backward returns
// is the workspace's own and is valid until the next call of the same
// method; the workspace must not be used concurrently.
type PoolWorkspace struct {
	y, dx   *Tensor
	argmax  []int
	inShape [4]int
}

// Forward applies max pooling with a square kernel and stride to a batch
// x [N, C, H, W] and returns the pooled output [N, C, OH, OW]. It records
// the flat index (into each sample's data) of every output's maximum, the
// first one in window order on ties, which Backward routes the gradient to.
func (ws *PoolWorkspace) Forward(x *Tensor, kernel, stride int) *Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: max pooling requires [N,C,H,W], got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh := ConvOut(h, kernel, stride, 0)
	ow := ConvOut(w, kernel, stride, 0)
	if oh <= 0 || ow <= 0 {
		panic("tensor: max pooling output is empty")
	}
	ws.inShape = [4]int{n, c, h, w}
	ws.y = Reuse(ws.y, n, c, oh, ow)
	if cap(ws.argmax) < n*c*oh*ow {
		ws.argmax = make([]int, n*c*oh*ow)
	}
	y, argmax := ws.y, ws.argmax[:n*c*oh*ow]
	ws.argmax = argmax
	sampleLen := c * h * w
	parallelFor(parallelWorkers(n), n, func(_, i int) {
		src := x.data[i*sampleLen : (i+1)*sampleLen]
		for ci := 0; ci < c; ci++ {
			for oy := 0; oy < oh; oy++ {
				o := ((i*c+ci)*oh + oy) * ow
				yo, ao := y.data[o:o+ow], argmax[o:o+ow]
				row := ci*h*w + oy*stride*w
				for ox := range yo {
					bi := row + ox*stride
					best := src[bi]
					for ky := 0; ky < kernel; ky++ {
						base := row + ky*w + ox*stride
						for kx, v := range src[base : base+kernel] {
							if v > best {
								best, bi = v, base+kx
							}
						}
					}
					yo[ox], ao[ox] = best, bi
				}
			}
		}
	})
	return y
}

// Backward routes the upstream gradient dy [N, C, OH, OW] of the last
// Forward to the recorded maxima and returns dx with the input's shape.
func (ws *PoolWorkspace) Backward(dy *Tensor) *Tensor {
	if len(ws.argmax) != dy.Size() {
		panic(fmt.Sprintf("tensor: max-pooling backward of dy %v does not match the last forward pass", dy.shape))
	}
	ws.dx = Reuse(ws.dx, ws.inShape[:]...)
	dx := ws.dx
	clear(dx.data)
	n := ws.inShape[0]
	if n == 0 {
		return dx
	}
	sampleLen := dx.Size() / n
	outSample := dy.Size() / n
	for i := 0; i < n; i++ {
		dst := dx.data[i*sampleLen : (i+1)*sampleLen]
		for j := 0; j < outSample; j++ {
			o := i*outSample + j
			dst[ws.argmax[o]] += dy.data[o]
		}
	}
	return dx
}
