package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// cnnDPShape is the benchmark's cnn-dp model: the paper's CNN at
// Conv1=4, Conv2=8, Hidden=32 on 28×28 grayscale inputs (dim 51,450).
var cnnDPShape = CNNConfig{InChannels: 1, Height: 28, Width: 28, Classes: 10, Conv1: 4, Conv2: 8, Kernel: 5, Hidden: 32}

// sparseImages returns n [1,28,28] images whose pixels are max(0, N(0,1)):
// about half are exact zeros, like MNIST backgrounds and ReLU outputs.
func sparseImages(r *rng.RNG, n int) *tensor.Tensor {
	x := randT(r, n, 1, 28, 28)
	for i, v := range x.Data() {
		if v < 0 {
			x.Data()[i] = 0
		}
	}
	return x
}

// hashBits folds the IEEE bit patterns of v into h.
func hashBits(h interface{ Write([]byte) (int, error) }, v []float64) {
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

// cnnGoldenRun trains the cnn-dp CNN from seed for three SGD steps at
// batch 32 and returns SHA-256 digests of every step's flat gradient and of
// the trained model's logits on 64 held-out images.
func cnnGoldenRun(seed uint64) (grads, eval string) {
	r := rng.New(seed)
	m := NewCNN(cnnDPShape, r)
	gh := sha256.New()
	var g []float64
	for step := 0; step < 3; step++ {
		x := sparseImages(r, 32)
		labels := make([]int, 32)
		for i := range labels {
			labels[i] = r.Intn(10)
		}
		ZeroGrad(m)
		_, d := CrossEntropy(m.Forward(x), labels)
		m.Backward(d)
		g = FlattenGrads(m, g)
		hashBits(gh, g)
		w := FlattenParams(m, nil)
		for i := range w {
			w[i] -= 0.05 * g[i]
		}
		SetParams(m, w)
	}
	eh := sha256.New()
	hashBits(eh, m.Forward(sparseImages(r, 64)).Data())
	return hex.EncodeToString(gh.Sum(nil)), hex.EncodeToString(eh.Sum(nil))
}

// TestCNNTrainStepGoldenBits pins the bits of three cnn-dp training steps
// and an evaluation forward pass. The digests were recorded at GOMAXPROCS 2
// before the register-tiled kernels and reused workspaces went in, so they
// certify that the rewrite does the same floating-point operations in the
// same order. The conv weight gradient is reduced over fixed 16-sample
// blocks, which at batch 32 is the split GOMAXPROCS 2 used to make, so the
// same digests now hold at any GOMAXPROCS.
func TestCNNTrainStepGoldenBits(t *testing.T) {
	const (
		wantGrads = "cdba7b5f0bc8ae9e5e0caa9bc3532ee927158e6b55306bfc2dc174e36f3dcf74"
		wantEval  = "1a4707bf894acf0819be1855d796d3817527d03fbb43721f5cb8122e9d3482f5"
	)
	for _, procs := range []int{1, 2, 3, 4} {
		old := runtime.GOMAXPROCS(procs)
		grads, eval := cnnGoldenRun(13)
		runtime.GOMAXPROCS(old)
		if grads != wantGrads {
			t.Errorf("GOMAXPROCS %d: gradient digest %s, recorded %s", procs, grads, wantGrads)
		}
		if eval != wantEval {
			t.Errorf("GOMAXPROCS %d: eval-forward digest %s, recorded %s", procs, eval, wantEval)
		}
	}
}

// TestConv2DStepAllocsIndependentOfBatch: a warm Conv2D layer reuses its
// padded images, gradient partials, output and input gradient, so a
// Forward+Backward allocates the same number of objects at batch 8 as at
// batch 32: nothing per sample. AllocsPerRun runs at
// GOMAXPROCS 1, so the count does not include goroutine fan-out, which
// differs between one sample block and two.
func TestConv2DStepAllocsIndependentOfBatch(t *testing.T) {
	r := rng.New(3)
	allocs := func(n int) float64 {
		c := NewConv2D(4, 8, 5, 1, 2, r)
		x := randT(r, n, 4, 14, 14)
		step := func() { c.Backward(c.Forward(x)) }
		step()
		return testing.AllocsPerRun(10, step)
	}
	if a8, a32 := allocs(8), allocs(32); a8 != a32 {
		t.Fatalf("warm Conv2D step allocates %v objects at batch 8 and %v at batch 32", a8, a32)
	}
}

// TestCNNTrainStepAllocs pins the allocation count of a warm cnn-dp
// training step at batch 32: 20 objects when pinned, where one buffer per
// sample and layer would add over a hundred.
func TestCNNTrainStepAllocs(t *testing.T) {
	const bound = 90
	r := rng.New(4)
	m := NewCNN(cnnDPShape, r)
	x := sparseImages(r, 32)
	labels := make([]int, 32)
	step := func() {
		ZeroGrad(m)
		_, d := CrossEntropy(m.Forward(x), labels)
		m.Backward(d)
	}
	step()
	if got := testing.AllocsPerRun(10, step); got > bound {
		t.Fatalf("warm cnn-dp training step allocates %v objects, bound %d", got, bound)
	}
}

// TestLinearStepAllocs: a warm Linear keeps its packing panel, its output
// and its input gradient, so a Forward+Backward allocates nothing.
func TestLinearStepAllocs(t *testing.T) {
	r := rng.New(6)
	l := NewLinear(392, 32, r)
	x, dy := randT(r, 32, 392), randT(r, 32, 32)
	step := func() {
		l.Forward(x)
		l.Backward(dy)
	}
	step()
	if got := testing.AllocsPerRun(10, step); got != 0 {
		t.Fatalf("warm Linear step allocates %v objects", got)
	}
}

// TestConcurrentReplicasMatchSerial: federated clients train their own
// replicas concurrently in one process, so no layer buffer, workspace or
// per-worker scratch may be shared between replicas. Two cnn-dp replicas
// trained at once, in two goroutines, must end on the bits of their serial
// runs; under -race the detector also sees any shared write.
func TestConcurrentReplicasMatchSerial(t *testing.T) {
	seeds := []uint64{13, 14}
	want := make([][2]string, len(seeds))
	for i, seed := range seeds {
		want[i][0], want[i][1] = cnnGoldenRun(seed)
	}
	got := make([][2]string, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i][0], got[i][1] = cnnGoldenRun(seed)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if got[i] != want[i] {
			t.Errorf("replica %d: concurrent run ends on digests %v, serial run %v", i, got[i], want[i])
		}
	}
}

// TestCNNTrainStepBytes: the layers of the cnn-dp CNN keep their outputs,
// input gradients and scratch from step to step, so a warm batch-32
// training step allocates under 1 MiB; a fresh tensor per activation and
// an im2col matrix per sample would take over 5 MB. GOMAXPROCS 1 keeps
// goroutine fan-out out of the count.
func TestCNNTrainStepBytes(t *testing.T) {
	const bound = 1 << 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := rng.New(4)
	m := NewCNN(cnnDPShape, r)
	x := sparseImages(r, 32)
	labels := make([]int, 32)
	step := func() {
		ZeroGrad(m)
		_, d := CrossEntropy(m.Forward(x), labels)
		m.Backward(d)
	}
	step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("warm cnn-dp training step allocates %d bytes, bound %d", got, bound)
	}
}

// BenchmarkTrainStepCNN times one training step (Forward, CrossEntropy,
// Backward) of the cnn-dp CNN at batch 32 and reports its allocations.
func BenchmarkTrainStepCNN(b *testing.B) {
	r := rng.New(1)
	m := NewCNN(cnnDPShape, r)
	x := sparseImages(r, 32)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = r.Intn(10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ZeroGrad(m)
		_, d := CrossEntropy(m.Forward(x), labels)
		m.Backward(d)
	}
}

// TestBuiltModelsSkipInputGradient: nothing reads the gradient with
// respect to a model's input, so the bottom layer of every built model
// skips it and Backward returns nil; a hand-assembled Sequential still
// returns it.
func TestBuiltModelsSkipInputGradient(t *testing.T) {
	r := rng.New(5)
	for name, m := range map[string]Module{
		"NewCNN":         NewCNN(CNNConfig{InChannels: 1, Height: 8, Width: 8, Classes: 3, Conv1: 2, Conv2: 3, Kernel: 3, Hidden: 4}, r),
		"NewMLP":         NewMLP(64, []int{5}, 3, r),
		"NewLinearModel": NewLinearModel(64, 3, r),
	} {
		_, d := CrossEntropy(m.Forward(randT(r, 2, 1, 8, 8)), []int{0, 2})
		if dx := m.Backward(d); dx != nil {
			t.Errorf("%s: Backward returned an input gradient of shape %v", name, dx.Shape())
		}
	}
	m := NewSequential(NewFlatten(), NewLinear(64, 3, r))
	_, d := CrossEntropy(m.Forward(randT(r, 2, 1, 8, 8)), []int{0, 2})
	if dx := m.Backward(d); dx == nil || dx.Dim(0) != 2 || dx.Size() != 2*64 {
		t.Fatalf("hand-built model: input gradient %v", dx)
	}
}
