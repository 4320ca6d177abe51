package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// inferCase is one layer (or composite) with a matching input. folds
// marks the graphs holding a batch norm: the compiler folds its scale
// into the weights (or an affine), so their plan matches Forward within
// 1e-4 relative instead of bitwise.
type inferCase struct {
	name  string
	layer Layer
	input *tensor.Tensor
	folds bool
}

// inferParityCases builds every layer type on its own plus full
// composites, each with realistic input. The BatchNorm gets perturbed
// running statistics so the frozen-stats path is actually exercised. A
// lone Flatten lowers to zero ops, so it rides behind a ReLU: the
// Flatten then also restores the plan's internal layout.
func inferParityCases() []inferCase {
	rng := rand.New(rand.NewSource(42))
	bn := NewBatchNorm2D("bn", 6)
	for ch := 0; ch < 6; ch++ {
		bn.RunningMean.Data[ch] = rng.Float32()*2 - 1
		bn.RunningVar.Data[ch] = 0.5 + rng.Float32()
	}
	flatRes := NewResNet(rng, MicroResNet50Config(4).WithFlatten(16, 16))
	return []inferCase{
		{"Linear+bias", NewLinear(rng, "fc", 33, 17, true), tensor.Randn(rng, 1, 5, 33), false},
		{"Linear-nobias", NewLinear(rng, "fcnb", 12, 8, false), tensor.Randn(rng, 1, 3, 12), false},
		{"Conv2D-pad", NewConv2D(rng, "conv", 3, 5, 3, 1, 1, true), tensor.Randn(rng, 1, 2, 3, 9, 9), false},
		{"Conv2D-batch1", NewConv2D(rng, "convb1", 3, 5, 3, 1, 1, true), tensor.Randn(rng, 1, 1, 3, 9, 9), false},
		{"Conv2D-stride", NewConv2D(rng, "convs", 4, 6, 3, 2, 1, false), tensor.Randn(rng, 1, 2, 4, 8, 8), false},
		{"Conv2D-1x1", NewConv2D(rng, "conv1", 4, 8, 1, 1, 0, false), tensor.Randn(rng, 1, 2, 4, 6, 6), false},
		{"BatchNorm2D", bn, tensor.Randn(rng, 1, 3, 6, 5, 5), true},
		{"ReLU", NewReLU(), tensor.Randn(rng, 1, 2, 40), false},
		{"Flatten", NewSequential(NewReLU(), NewFlatten()), tensor.Randn(rng, 1, 2, 3, 4, 4), false},
		{"GlobalAvgPool", NewGlobalAvgPool(), tensor.Randn(rng, 1, 2, 3, 5, 5), false},
		{"Sequential-MLP", NewSequential(
			NewLinear(rng, "s1", 20, 16, true), NewReLU(), NewLinear(rng, "s2", 16, 9, true),
		), tensor.Randn(rng, 1, 4, 20), false},
		{"ResNet-gap", NewResNet(rng, MicroResNet50Config(4)), tensor.Randn(rng, 1, 2, 3, 16, 16), true},
		{"ResNet-flatten", flatRes, tensor.Randn(rng, 1, 2, 3, 16, 16), true},
		{"ResNet-basic", NewResNet(rng, ResNetConfig{
			Name: "basic", StageDepths: [4]int{1, 1, 1, 1}, BaseWidth: 4, InChannels: 3,
		}), tensor.Randn(rng, 1, 2, 3, 16, 16), true},
	}
}

// TestInferForwardParity pins the Inferer contract on the one inference
// path, layer type by layer type: the compiled plan of a lone layer (or
// a composite) is bitwise identical to Forward(x, false) on the same
// frozen weights wherever nothing folds, and a fresh Scratch, the same
// Scratch after Reset with a parallel matmul budget, and a pooled
// Scratch all reproduce the exact same bits.
func TestInferForwardParity(t *testing.T) {
	for _, tc := range inferParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.layer.Forward(tc.input, false)
			var inf Inferer = MustCompile(tc.layer)

			s := NewScratch()
			got := inf.Infer(tc.input, s).Clone()
			if tc.folds {
				requireClose(t, tc.name, got, want, 1e-4)
			} else {
				requireBitwiseEqual(t, tc.name, got, want)
			}

			s.Reset()
			s.Workers = 4
			requireBitwiseEqual(t, tc.name+"/workers=4", inf.Infer(tc.input, s), got)

			pooled := GetScratch()
			defer PutScratch(pooled)
			requireBitwiseEqual(t, tc.name+"/pooled", inf.Infer(tc.input, pooled), got)
		})
	}
}

// TestInferSharedNetConcurrent is the -race stress of the stateless
// path: one frozen network compiled once and shared by many goroutines,
// each running its OWN input through its own pooled Scratch, all
// producing the serial answer for that input.
func TestInferSharedNetConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewResNet(rng, MicroResNet50Config(4))
	cn := MustCompile(net)
	const goroutines, rounds = 8, 3

	inputs := make([]*tensor.Tensor, goroutines)
	wants := make([]*tensor.Tensor, goroutines)
	for g := range inputs {
		inputs[g] = tensor.Randn(rng, 1, 2, 3, 16, 16)
		wants[g] = cn.Infer(inputs[g], NewScratch()).Clone()
		requireClose(t, "serial", wants[g], net.Forward(inputs[g], false), 1e-4)
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := GetScratch()
			defer PutScratch(sc)
			for r := 0; r < rounds; r++ {
				sc.Reset()
				got := cn.Infer(inputs[g], sc)
				for i := range wants[g].Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(wants[g].Data[i]) {
						errs <- "concurrent Infer diverged from the serial answer for its input"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
