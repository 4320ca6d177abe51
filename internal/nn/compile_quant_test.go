package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// relL2 returns ‖got−want‖₂/‖want‖₂ — the accuracy metric for the
// quantized plan, whose per-element error is bounded by the activation
// scales rather than float rounding.
func relL2(got, want *tensor.Tensor) float64 {
	var num, den float64
	for i := range want.Data {
		d := float64(got.Data[i] - want.Data[i])
		num += d * d
		w := float64(want.Data[i])
		den += w * w
	}
	if den == 0 {
		den = 1
	}
	return math.Sqrt(num / den)
}

// mustCompileQuantized is CompileQuantized, failing the test on error.
func mustCompileQuantized(t testing.TB, l Layer, calib *tensor.Tensor) *CompiledNet {
	t.Helper()
	c, err := CompileQuantized(l, calib)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCompiledQuantizedTracksFloat pins the int8 lowering on every
// block shape the compiler fuses: the quantized plan (calibrated on the
// test input itself) stays within a small relative-L2 budget of the f32
// compiled plan, and a batch-1 slice through the SAME qplan (offsets
// scale with N; scales were calibrated at the full batch) stays in
// budget too.
func TestCompiledQuantizedTracksFloat(t *testing.T) {
	for _, tc := range compileParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref := MustCompile(tc.layer)
			cq := mustCompileQuantized(t, tc.layer, tc.input)
			s := NewScratch()
			want := ref.Infer(tc.input, s).Clone()
			s.Reset()
			got := cq.Infer(tc.input, s)
			if !got.SameShape(want) {
				t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
			}
			if e := relL2(got, want); e > 0.12 {
				t.Fatalf("quantized output rel-L2 error %.4f exceeds budget", e)
			}

			one := tc.input.Shape()
			one[0] = 1
			x1 := tensor.FromSlice(tc.input.Data[:tc.input.Len()/tc.input.Dim(0)], one...)
			s.Reset()
			w1 := ref.Infer(x1, s).Clone()
			s.Reset()
			if e := relL2(cq.Infer(x1, s), w1); e > 0.12 {
				t.Fatalf("batch-1 quantized rel-L2 error %.4f exceeds budget", e)
			}
		})
	}
}

// TestCompiledQuantizedBitwiseAcrossWorkers pins the int8 determinism
// contract, which is STRONGER than the f32 one: the integer
// accumulation is exact and the float epilogue per-element, so any
// worker budget produces identical bits.
func TestCompiledQuantizedBitwiseAcrossWorkers(t *testing.T) {
	for _, tc := range compileParityCases() {
		cq := mustCompileQuantized(t, tc.layer, tc.input)
		s := NewScratch()
		want := cq.Infer(tc.input, s).Clone()
		for _, workers := range []int{2, 3, 8} {
			sw := NewScratch()
			sw.Workers = workers
			got := cq.Infer(tc.input, sw)
			requireBitwiseEqual(t, tc.name+"/workers", got, want)
		}
	}
}

// TestCompiledQuantizedFallbackGeometry pins the routing contract: an
// input whose per-sample geometry differs from the calibration batch
// runs the f32 plan of the same CompiledNet — bitwise equal to a plain
// compiled net, not a quantized approximation.
func TestCompiledQuantizedFallbackGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := NewResNet(rng, MicroResNet50Config(4))
	calib := tensor.Randn(rng, 1, 2, 3, 16, 16)
	cq := mustCompileQuantized(t, net, calib)
	ref := MustCompile(net)

	other := tensor.Randn(rng, 1, 2, 3, 12, 12) // different H, W
	requireBitwiseEqual(t, "fallback-f32",
		cq.Infer(other, NewScratch()), ref.Infer(other, NewScratch()))

	// And the calibration geometry itself routes int8: outputs differ
	// from f32 (quantized arithmetic) while staying in budget.
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	gq := cq.Infer(x, NewScratch())
	gf := ref.Infer(x, NewScratch())
	same := true
	for i := range gq.Data {
		if gq.Data[i] != gf.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("calibration-geometry input produced f32-identical output: int8 plan not routed")
	}
	if e := relL2(gq, gf); e > 0.12 {
		t.Fatalf("quantized rel-L2 error %.4f on non-calibration input exceeds budget", e)
	}
}

// TestCompiledQuantizedInvalidation pins recalibration: an optimizer
// step bumps parameter versions, so the next Infer refolds,
// REcalibrates on the retained batch and requantizes — tracking the
// updated network instead of serving stale scales.
func TestCompiledQuantizedInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	net := NewResNet(rng, MicroResNet50Config(4))
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	cq := mustCompileQuantized(t, net, x)
	ref := MustCompile(net)
	s := NewScratch()
	before := cq.Infer(x, s).Clone()

	NewAdamW(0.1, 0.2).Step(net.Params())
	s.Reset()
	got := cq.Infer(x, s)
	same := true
	for i := range got.Data {
		if got.Data[i] != before.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("optimizer step did not change the quantized output: stale plan served")
	}
	s.Reset()
	if e := relL2(got, ref.Infer(x, s)); e > 0.12 {
		t.Fatalf("post-step quantized rel-L2 error %.4f exceeds budget", e)
	}
}

// TestCompiledQuantizedSharedConcurrent is the -race stress for the
// int8 path: one quantized CompiledNet shared by many goroutines, every
// result bitwise equal to the serial answer.
func TestCompiledQuantizedSharedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	net := NewResNet(rng, MicroResNet50Config(4))
	x := tensor.Randn(rng, 1, 2, 3, 16, 16)
	cq := mustCompileQuantized(t, net, x)
	want := cq.Infer(x, NewScratch()).Clone()
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
				got := cq.Infer(x, sc)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						errs <- "concurrent quantized Infer diverged from serial result"
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

// TestCompiledQuantizedInferZeroAlloc pins the two-slab scheduling
// contract: with a warm Scratch and a built qplan, the int8 Infer
// allocates NOTHING — activations live in the pre-sized int8 arena
// slab, boundary floats in the f32 slab, GEMM panels in the scratch
// packing buffer.
func TestCompiledQuantizedInferZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc guard runs in non-race CI")
	}
	rng := rand.New(rand.NewSource(45))
	for _, cfg := range []ResNetConfig{
		MicroResNet50Config(4),
		MicroResNet50Config(4).WithFlatten(16, 16),
	} {
		net := NewResNet(rng, cfg)
		x := tensor.Randn(rng, 1, 2, 3, 16, 16)
		cq := mustCompileQuantized(t, net, x)
		sc := NewScratch()
		for i := 0; i < 2; i++ { // warm the plan, size and coalesce the arenas
			sc.Reset()
			cq.Infer(x, sc)
		}
		avg := testing.AllocsPerRun(20, func() {
			sc.Reset()
			cq.Infer(x, sc)
		})
		if avg != 0 {
			t.Fatalf("%s (flatten=%v): quantized Infer allocates %.1f objects per call, want 0",
				cfg.Name, cfg.FlattenPool, avg)
		}
	}
}

// TestCompileQuantizedRejects pins the error paths: an unlowerable
// graph and a calibration batch of the wrong rank both fail at
// CompileQuantized time (the quantized plan is built eagerly), not on
// the first request.
func TestCompileQuantizedRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	if _, err := CompileQuantized(NewSequential(unsupportedLayer{}), tensor.Randn(rng, 1, 2, 20)); err == nil {
		t.Fatal("CompileQuantized accepted a layer it cannot lower")
	}
	net := NewSequential(NewLinear(rng, "l", 20, 8, true))
	if _, err := CompileQuantized(net, tensor.Randn(rng, 1, 2, 20, 1)); err == nil {
		t.Fatal("CompileQuantized accepted a rank-3 calibration batch")
	}
	if _, err := CompileQuantized(net, tensor.Randn(rng, 1, 2, 21)); err == nil {
		t.Fatal("CompileQuantized accepted a calibration batch with the wrong width")
	}
}
