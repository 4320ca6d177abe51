package nn

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// requireClose fails unless got matches want within relTol relative
// error (denominator clamped at 1 so near-zero activations compare
// absolutely) — the BN-folding parity bar: folding multiplies the scale
// into the weights before the product instead of after the sum, so the
// compiled path is tolerance-equal, not bitwise-equal, to Forward.
func requireClose(t *testing.T, name string, got, want *tensor.Tensor, relTol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		g, w := float64(got.Data[i]), float64(want.Data[i])
		den := math.Abs(w)
		if den < 1 {
			den = 1
		}
		if math.Abs(g-w) > relTol*den {
			t.Fatalf("%s: element %d: compiled %v vs forward %v (rel err %.3g > %.3g)",
				name, i, g, w, math.Abs(g-w)/den, relTol)
		}
	}
}

// requireBitwiseEqual fails unless a and b carry identical float32 bit
// patterns (not just "close").
func requireBitwiseEqual(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: got %v (bits %#x) vs want %v (bits %#x)",
				name, i, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// compileCase is one compilable network with a matching input.
type compileCase struct {
	name  string
	layer Layer
	input *tensor.Tensor
}

// compileParityCases covers every ResNet block shape the compiler
// fuses — bottleneck and basic blocks, stride-2 downsamples, 1×1
// projection shortcuts, identity shortcuts, flatten and avg-pool heads —
// plus MLP chains and standalone fusion seams (conv+bn+relu, affine
// fallbacks). Each layer type lowered on its own is inferParityCases'.
func compileParityCases() []compileCase {
	rng := rand.New(rand.NewSource(77))
	perturbBN := func(bn *BatchNorm2D) *BatchNorm2D {
		for ch := range bn.RunningMean.Data {
			bn.RunningMean.Data[ch] = rng.Float32()*2 - 1
			bn.RunningVar.Data[ch] = 0.5 + rng.Float32()
		}
		return bn
	}
	// A stem so residual blocks see compiler-internal activations (the
	// layout every mid-network block runs in).
	stem := func(outC int) []Layer {
		return []Layer{
			NewConv2D(rng, "stem", 3, outC, 3, 1, 1, false),
			perturbBN(NewBatchNorm2D("stembn", outC)),
			NewReLU(),
		}
	}
	identityBlock := NewSequential(append(stem(16), newResidualBlock(rng, "idb", 16, 4, 1, true))...)
	strideBlock := NewSequential(append(stem(8), newResidualBlock(rng, "s2b", 8, 8, 2, true))...)
	basicBlock := NewSequential(append(stem(8), newResidualBlock(rng, "bas", 8, 12, 2, false))...)
	return []compileCase{
		{"conv-bn-relu", NewSequential(
			NewConv2D(rng, "c", 3, 7, 3, 1, 1, false),
			perturbBN(NewBatchNorm2D("b", 7)),
			NewReLU(),
		), tensor.Randn(rng, 1, 3, 3, 9, 9)},
		{"conv-bias-bn", NewSequential( // biased conv: BN lowers to affine, not a fold
			NewConv2D(rng, "cb", 3, 5, 3, 2, 1, true),
			perturbBN(NewBatchNorm2D("bb", 5)),
		), tensor.Randn(rng, 1, 2, 3, 8, 8)},
		{"bn-first", NewSequential( // BN with nothing to fold into
			perturbBN(NewBatchNorm2D("b0", 3)),
			NewReLU(),
			NewConv2D(rng, "c0", 3, 4, 1, 1, 0, false),
		), tensor.Randn(rng, 1, 2, 3, 6, 6)},
		{"identity-shortcut", identityBlock, tensor.Randn(rng, 1, 3, 3, 8, 8)},
		{"stride2-projection", strideBlock, tensor.Randn(rng, 1, 3, 3, 9, 9)},
		{"basic-block", basicBlock, tensor.Randn(rng, 1, 2, 3, 8, 8)},
		{"resnet-gap", NewResNet(rng, MicroResNet50Config(4)), tensor.Randn(rng, 1, 3, 3, 16, 16)},
		{"resnet-basic", NewResNet(rng, ResNetConfig{
			Name: "basic", StageDepths: [4]int{1, 1, 1, 1}, BaseWidth: 4, InChannels: 3,
		}), tensor.Randn(rng, 1, 2, 3, 16, 16)},
		{"resnet-flatten", NewResNet(rng, MicroResNet50Config(4).WithFlatten(16, 16)),
			tensor.Randn(rng, 1, 2, 3, 16, 16)},
		{"resnet-deep", NewResNet(rng, MicroResNet101Config(4)), tensor.Randn(rng, 1, 2, 3, 16, 16)},
		{"mlp", NewSequential(
			NewLinear(rng, "l1", 20, 16, true), NewReLU(),
			NewLinear(rng, "l2", 16, 9, true),
		), tensor.Randn(rng, 1, 4, 20)},
	}
}

// TestCompiledInferMatchesForward pins the fold→run round trip: the
// compiled plan (BN folded, epilogues fused, CNHW internals) matches
// Forward(x, false) within 1e-4 relative on every block shape, at
// several batch sizes through the same cached plan.
func TestCompiledInferMatchesForward(t *testing.T) {
	for _, tc := range compileParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			cn := MustCompile(tc.layer)
			want := tc.layer.Forward(tc.input, false)
			s := NewScratch()
			requireClose(t, tc.name, cn.Infer(tc.input, s), want, 1e-4)

			// Smaller batch through the SAME plan (offsets scale with N).
			one := tc.input.Shape()
			one[0] = 1
			x1 := tensor.FromSlice(tc.input.Data[:tc.input.Len()/tc.input.Dim(0)], one...)
			w1 := tc.layer.Forward(x1, false)
			s.Reset()
			requireClose(t, tc.name+"/batch1", cn.Infer(x1, s), w1, 1e-4)
		})
	}
}

// TestCompiledBitwiseAcrossWorkers pins the compiled path's own
// determinism contract: identical bits for any Scratch worker budget
// (the GOMAXPROCS invariance the serving layer relies on).
func TestCompiledBitwiseAcrossWorkers(t *testing.T) {
	for _, tc := range compileParityCases() {
		cn := MustCompile(tc.layer)
		s := NewScratch()
		want := cn.Infer(tc.input, s).Clone()
		for _, workers := range []int{2, 3, 8} {
			sw := NewScratch()
			sw.Workers = workers
			got := cn.Infer(tc.input, sw)
			requireBitwiseEqual(t, tc.name+"/workers", got, want)
		}
	}
}

// TestCompiledMLPBitwiseEqualsForward pins that for graphs with nothing
// to fold (no batch norm), the fused epilogues are EXACT: compiled
// output is bit-identical to Forward, since packed weights, fused bias
// and the fused ReLU clamp are each bitwise-equal to their separate
// passes.
func TestCompiledMLPBitwiseEqualsForward(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := NewSequential(
		NewLinear(rng, "m1", 24, 40, true), NewReLU(),
		NewLinear(rng, "m2", 40, 12, true), NewReLU(),
		NewLinear(rng, "m3", 12, 5, false),
	)
	x := tensor.Randn(rng, 1, 9, 24)
	cn := MustCompile(net)
	want := net.Forward(x, false)
	requireBitwiseEqual(t, "mlp", cn.Infer(x, NewScratch()), want)
}

// TestCompiledFoldFloat64Oracle pins the fold arithmetic itself against
// a float64 reference convolution + batch norm + relu: both the layer
// Forward and the compiled fused path must sit within 1e-4 relative of
// the oracle, so the fold cannot silently drift even if both float32
// paths moved together.
func TestCompiledFoldFloat64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	const inC, outC, kk, img = 3, 6, 3, 8
	conv := NewConv2D(rng, "oc", inC, outC, kk, 1, 1, false)
	bn := NewBatchNorm2D("ob", outC)
	for ch := 0; ch < outC; ch++ {
		bn.RunningMean.Data[ch] = rng.Float32()*2 - 1
		bn.RunningVar.Data[ch] = 0.5 + rng.Float32()
		bn.Gamma.Value.Data[ch] = 0.5 + rng.Float32()
		bn.Beta.Value.Data[ch] = rng.Float32() - 0.5
	}
	net := NewSequential(conv, bn, NewReLU())
	x := tensor.Randn(rng, 1, 2, inC, img, img)

	// Float64 oracle: direct convolution, frozen-stats normalization,
	// clamp — no float32 rounding anywhere.
	n := x.Dim(0)
	oracle := make([]float64, n*outC*img*img)
	for i := 0; i < n; i++ {
		for oc := 0; oc < outC; oc++ {
			inv := 1 / math.Sqrt(float64(bn.RunningVar.Data[oc])+float64(bn.Eps))
			g, b := float64(bn.Gamma.Value.Data[oc]), float64(bn.Beta.Value.Data[oc])
			mean := float64(bn.RunningMean.Data[oc])
			for oy := 0; oy < img; oy++ {
				for ox := 0; ox < img; ox++ {
					var sum float64
					for ic := 0; ic < inC; ic++ {
						for ky := 0; ky < kk; ky++ {
							for kx := 0; kx < kk; kx++ {
								iy, ix := oy+ky-1, ox+kx-1
								if iy < 0 || iy >= img || ix < 0 || ix >= img {
									continue
								}
								wv := float64(conv.W.Value.Data[oc*inC*kk*kk+(ic*kk+ky)*kk+kx])
								xv := float64(x.Data[((i*inC+ic)*img+iy)*img+ix])
								sum += wv * xv
							}
						}
					}
					v := g*(sum-mean)*inv + b
					if v < 0 {
						v = 0
					}
					oracle[((i*outC+oc)*img+oy)*img+ox] = v
				}
			}
		}
	}
	check := func(name string, got *tensor.Tensor) {
		t.Helper()
		for i, w := range oracle {
			den := math.Abs(w)
			if den < 1 {
				den = 1
			}
			if math.Abs(float64(got.Data[i])-w) > 1e-4*den {
				t.Fatalf("%s: element %d: %v vs oracle %v", name, i, got.Data[i], w)
			}
		}
	}
	check("forward", net.Forward(x, false))
	check("compiled", MustCompile(net).Infer(x, NewScratch()))
}

// TestCompiledInvalidation pins the cache-coherence contract: an
// optimizer step, a checkpoint load, or a training pass that moves the
// BN running statistics each bump a version the compiled plan is keyed
// on, so the next Infer refolds instead of serving stale weights.
func TestCompiledInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	net := NewResNet(rng, MicroResNet50Config(4))
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	cn := MustCompile(net)
	s := NewScratch()
	before := cn.Infer(x, s).Clone()

	// Optimizer step: weight decay alone moves every decayable weight.
	NewAdamW(0.1, 0.2).Step(net.Params())
	s.Reset()
	got := cn.Infer(x, s)
	requireClose(t, "post-step", got, net.Forward(x, false), 1e-4)
	same := true
	for i := range got.Data {
		if got.Data[i] != before.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("optimizer step did not change the compiled output: stale plan served")
	}

	// Checkpoint restore: LoadParams bumps every loaded version.
	donor := NewResNet(rand.New(rand.NewSource(100)), MicroResNet50Config(4))
	var buf bytes.Buffer
	if err := SaveParams(&buf, donor.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	requireClose(t, "post-load", cn.Infer(x, s), net.Forward(x, false), 1e-4)

	// Training pass: running stats move without any parameter version
	// bump; the stats content fingerprint covers them.
	net.Forward(x, true)
	s.Reset()
	requireClose(t, "post-train-stats", cn.Infer(x, s), net.Forward(x, false), 1e-4)

	// State-only checkpoint restore: LoadParams(StateParams(...)) writes
	// the running-stat tensors directly, bumping only the ephemeral
	// synthetic Params — no version on the network moves at all. The
	// content fingerprint must still refold.
	s.Reset()
	cn.Infer(x, s) // make sure a plan for the current stats is cached
	var statBuf bytes.Buffer
	if err := SaveParams(&statBuf, StateParams(donor.State())); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&statBuf, StateParams(net.State())); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	requireClose(t, "post-state-restore", cn.Infer(x, s), net.Forward(x, false), 1e-4)
}

// TestLinearPackedWeightInvalidation pins the cache-coherence contract
// of the pre-packed weight panel a compiled Linear reads: an optimizer
// step and a direct Value write announced by BumpVersion must each reach
// the output, which for a BN-free net stays bitwise equal to Forward.
func TestLinearPackedWeightInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	fc := NewLinear(rng, "fc1", 12, 16, true)
	mlp := NewSequential(fc, NewReLU(), NewLinear(rng, "fc2", 16, 7, false))
	x := tensor.Randn(rng, 1, 3, 12)
	cn := MustCompile(mlp)
	prev := cn.Infer(x, NewScratch()).Clone()
	for _, mutate := range []struct {
		name  string
		apply func()
	}{
		{"optimizer-step", func() {
			for i := range fc.W.Grad.Data {
				fc.W.Grad.Data[i] = 0.5
			}
			NewAdamW(0.1, 0).Step(mlp.Params())
		}},
		{"bump-version", func() {
			for i := range fc.W.Value.Data {
				fc.W.Value.Data[i] += 0.25
			}
			fc.W.BumpVersion()
		}},
	} {
		mutate.apply()
		got := cn.Infer(x, NewScratch()).Clone()
		requireBitwiseEqual(t, mutate.name, got, mlp.Forward(x, false))
		changed := false
		for i := range got.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(prev.Data[i]) {
				changed = true
				break
			}
		}
		if !changed {
			t.Fatalf("%s did not change the compiled output: stale packed weight panel served", mutate.name)
		}
		prev = got
	}
}

// TestCompiledSharedConcurrent is the -race stress: one CompiledNet
// shared by many goroutines (spanning a refold triggered mid-flight by
// a version bump between rounds), every result bitwise equal to the
// single-threaded answer.
func TestCompiledSharedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewResNet(rng, MicroResNet50Config(4))
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	cn := MustCompile(net)
	want := cn.Infer(x, NewScratch()).Clone()
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := GetScratch()
			defer PutScratch(sc)
			for r := 0; r < rounds; r++ {
				sc.Reset()
				got := cn.Infer(x, sc)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						errs <- "concurrent Infer diverged from serial result"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}

// requireInferZeroAlloc pins the plan-level scheduling contract: with a
// warm Scratch and a built plan, CompiledNet.Infer allocates NOTHING —
// the whole activation footprint is one pre-sized arena reservation with
// compiler-assigned offsets, GEMM panels and packed weights included.
func requireInferZeroAlloc(t *testing.T, name string, net Layer, x *tensor.Tensor) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
	}
	cn := MustCompile(net)
	sc := NewScratch()
	for i := 0; i < 2; i++ { // build the plan, size and coalesce the arena
		sc.Reset()
		cn.Infer(x, sc)
	}
	avg := testing.AllocsPerRun(20, func() {
		sc.Reset()
		cn.Infer(x, sc)
	})
	if avg != 0 {
		t.Fatalf("%s: CompiledNet.Infer allocates %.1f objects per call, want 0", name, avg)
	}
}

// TestResNetInferZeroAlloc holds a bare ResNet, with either head, to the
// zero-allocation contract.
func TestResNetInferZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, cfg := range []ResNetConfig{
		MicroResNet50Config(4),
		MicroResNet50Config(4).WithFlatten(16, 16),
	} {
		requireInferZeroAlloc(t, cfg.Name, NewResNet(rng, cfg), tensor.Randn(rng, 1, 2, 3, 16, 16))
	}
}

// TestLinearInferZeroAlloc holds a lone projection layer to the same
// contract.
func TestLinearInferZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	requireInferZeroAlloc(t, "linear", NewLinear(rng, "fc", 256, 128, true), tensor.Randn(rng, 1, 32, 256))
}

// TestCompiledInferZeroAlloc holds the serving embedder's shape — a
// ResNet followed by a Linear projection — to the same contract.
func TestCompiledInferZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := MicroResNet50Config(4)
	net := NewSequential(NewResNet(rng, cfg), NewLinear(rng, "proj", cfg.OutDim(), 96, true))
	requireInferZeroAlloc(t, "projected", net, tensor.Randn(rng, 1, 2, 3, 16, 16))
}

// TestCompileRejectsUnsupported pins the compile-time error path.
func TestCompileRejectsUnsupported(t *testing.T) {
	if _, err := Compile(NewSequential(unsupportedLayer{})); err == nil {
		t.Fatal("Compile accepted a layer it cannot lower")
	}
}

type unsupportedLayer struct{}

func (unsupportedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (unsupportedLayer) Backward(dout *tensor.Tensor) *tensor.Tensor         { return dout }
func (unsupportedLayer) Params() []*Param                                    { return nil }
