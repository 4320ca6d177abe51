package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// gemm8EdgeShapes exercises every remainder case of the int8 kernel:
// m/n not multiples of the 4×16 micro-tile, k not a multiple of the
// 4-wide quad, degenerate m=1 / k=1 / n=1, and conv/projection-shaped
// products from the compiled embedder.
var gemm8EdgeShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{3, 1, 9},
	{1, 300, 1},
	{gemm8MR, 5, gemm8NR},
	{gemm8MR + 1, 4, gemm8NR + 3},
	{gemm8MR - 1, 17, gemm8NR - 1},
	{5, 8, 9},
	{6, 257, 10},
	{13, 515, 21},
	{64, 64, 64},
	{65, 63, 129},
	{32, 288, 130},
	{8, 27, 256},
}

// randW8 fills a weight matrix in the kernel's reduced range.
func randW8(rng *rand.Rand, n int) []int8 {
	q := make([]int8, n)
	for i := range q {
		q[i] = int8(rng.Intn(2*Gemm8WMax+1) - Gemm8WMax)
	}
	return q
}

// randA8 fills an activation matrix over the full symmetric int8 range.
func randA8(rng *rand.Rand, n int) []int8 {
	q := make([]int8, n)
	for i := range q {
		q[i] = int8(rng.Intn(2*Gemm8AMax+1) - Gemm8AMax)
	}
	return q
}

// refGemm8 computes the exact integer product Σ_k w[r,k]·x[k,c] in
// int32 — the value the kernel must recover after its +128 unsigned
// bias and rowOff correction.
func refGemm8(w, x []int8, m, k, n int) []int32 {
	acc := make([]int32, m*n)
	for r := 0; r < m; r++ {
		for kk := 0; kk < k; kk++ {
			wv := int32(w[r*k+kk])
			if wv == 0 {
				continue
			}
			for c := 0; c < n; c++ {
				acc[r*n+c] += wv * int32(x[kk*n+c])
			}
		}
	}
	return acc
}

// refEpilogue8 applies the reference epilogue with the exact float
// expression order of gemm8EpilogueTile, so f32 outputs must match the
// driver BITWISE (the integer product is exact and the float ops are
// identical IEEE operations in the same order).
func refEpilogue8(acc []int32, m, n int, o Gemm8Opts) []float32 {
	out := make([]float32, m*n)
	for r := 0; r < m; r++ {
		sc := float32(1)
		if o.RowScale != nil {
			sc = o.RowScale[r]
		}
		var bias float32
		if o.Bias != nil {
			bias = o.Bias[r]
		}
		for c := 0; c < n; c++ {
			v := float32(acc[r*n+c])*sc + bias
			if o.Accum != nil {
				v += o.AccScale * float32(o.Accum[r*n+c])
			}
			if o.ReLU && !(v > 0) {
				v = 0
			}
			out[r*n+c] = v
		}
	}
	return out
}

// TestGemm8EdgeShapesMatchReference pins Gemm8Into and Gemm8QInto
// against the exact integer oracle on every edge shape, across all
// epilogue combinations (dequant scale, bias, int8 residual accumulate,
// ReLU, int8 requantization). Equality is bitwise: whichever kernel
// (assembly or portable) this machine runs, the integer sums are exact
// and the epilogue is the same shared Go code.
func TestGemm8EdgeShapesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range gemm8EdgeShapes {
		for _, epi := range []struct {
			name                  string
			scale, bias, ac, relu bool
		}{
			{"plain", false, false, false, false},
			{"scale", true, false, false, false},
			{"scale-bias", true, true, false, false},
			{"scale-bias-relu", true, true, false, true},
			{"scale-bias-accum-relu", true, true, true, true},
		} {
			t.Run(fmt.Sprintf("%dx%dx%d/%s", sh.m, sh.k, sh.n, epi.name), func(t *testing.T) {
				w := randW8(rng, sh.m*sh.k)
				x := randA8(rng, sh.k*sh.n)
				pw := PackB8(w, sh.m, sh.k)
				o := Gemm8Opts{InvOutScale: 0.35}
				if epi.scale {
					o.RowScale = make([]float32, sh.m)
					for i := range o.RowScale {
						o.RowScale[i] = 0.001 + rng.Float32()*0.01
					}
				}
				if epi.bias {
					o.Bias = make([]float32, sh.m)
					for i := range o.Bias {
						o.Bias[i] = rng.Float32() - 0.5
					}
				}
				if epi.ac {
					o.Accum = randA8(rng, sh.m*sh.n)
					o.AccScale = 0.02
				}
				o.ReLU = epi.relu

				want := refEpilogue8(refGemm8(w, x, sh.m, sh.k, sh.n), sh.m, sh.n, o)

				got := make([]float32, sh.m*sh.n)
				for i := range got {
					got[i] = 42 // stale contents must be overwritten
				}
				Gemm8Into(got, pw, x, sh.n, o)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("f32 out[%d] = %v, want %v", i, got[i], want[i])
					}
				}

				got8 := make([]int8, sh.m*sh.n)
				Gemm8QInto(got8, pw, x, sh.n, o)
				for i := range want {
					if q := Quant8RNE(want[i] * o.InvOutScale); got8[i] != q {
						t.Fatalf("int8 out[%d] = %d, want %d", i, got8[i], q)
					}
				}
			})
		}
	}
}

// TestGemm8KernelAsmPortableParity drives the dispatched kernel and the
// portable kernel over identical packed panels and requires bitwise
// equality — on amd64 with AVX2 this pins the assembly kernel against
// the Go reference on every lane.
func TestGemm8KernelAsmPortableParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kq := range []int{1, 2, 3, 7, 64, 333} {
		ap := make([]int8, kq*gemm8KQ*gemm8MR)
		for i := range ap {
			ap[i] = int8(rng.Intn(2*Gemm8WMax+1) - Gemm8WMax)
		}
		bp := make([]uint8, kq*gemm8KQ*gemm8NR)
		for i := range bp {
			bp[i] = uint8(1 + rng.Intn(255)) // the biased range [1, 255]
		}
		var got, want [gemm8MR * gemm8NR]int32
		gemm8Kernel(&got, ap, bp, kq)
		gemm8KernelGeneric(&want, ap, bp, kq)
		if got != want {
			t.Fatalf("kq=%d: dispatched kernel diverges from portable kernel:\n got %v\nwant %v", kq, got, want)
		}
	}
}

// TestGemm8BitwiseAcrossWorkers pins the determinism contract of the
// int8 driver: any worker budget yields bitwise-identical f32 and int8
// outputs.
func TestGemm8BitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, k, n = 37, 291, 203
	w := randW8(rng, m*k)
	x := randA8(rng, k*n)
	pw := PackB8(w, m, k)
	o := Gemm8Opts{
		RowScale:    make([]float32, m),
		Bias:        make([]float32, m),
		Accum:       randA8(rng, m*n),
		AccScale:    0.015,
		ReLU:        true,
		InvOutScale: 9.7,
	}
	for i := 0; i < m; i++ {
		o.RowScale[i] = 0.002 + rng.Float32()*0.003
		o.Bias[i] = rng.Float32() - 0.5
	}
	base := make([]float32, m*n)
	base8 := make([]int8, m*n)
	o.Workers = 1
	Gemm8Into(base, pw, x, n, o)
	Gemm8QInto(base8, pw, x, n, o)
	for _, workers := range []int{2, 3, 5, 8, 16} {
		o.Workers = workers
		got := make([]float32, m*n)
		got8 := make([]int8, m*n)
		Gemm8Into(got, pw, x, n, o)
		Gemm8QInto(got8, pw, x, n, o)
		for i := range base {
			if base[i] != got[i] {
				t.Fatalf("workers=%d: f32 out[%d] = %v, serial %v", workers, i, got[i], base[i])
			}
			if base8[i] != got8[i] {
				t.Fatalf("workers=%d: int8 out[%d] = %d, serial %d", workers, i, got8[i], base8[i])
			}
		}
	}
}

// TestPackB8RejectsOutOfRange pins the reduced weight range: a weight
// outside [−Gemm8WMax, Gemm8WMax] would let the s16 pair sums saturate,
// silently breaking exactness, so PackB8 must refuse it.
func TestPackB8RejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PackB8 accepted a weight outside the exact range")
		}
	}()
	PackB8([]int8{64, 0, 0, 0}, 2, 2)
}

// TestPackB8Footprint pins the ~4× storage win over the f32 packed
// panels for a projection-shaped weight matrix.
func TestPackB8Footprint(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, k = 1536, 256
	pw := PackB8(randW8(rng, m*k), m, k)
	f32Bytes := 4 * m * k
	if b := len(pw.data) + 4*len(pw.rowOff); b > f32Bytes/3 {
		t.Fatalf("packed int8 weights are %d bytes, want ≤ a third of the %d-byte f32 panels", b, f32Bytes)
	}
}

// BenchmarkGemm8 runs the canonical GEMM sweep through the int8 kernel
// for side-by-side comparison with BenchmarkGEMM's f32 numbers.
func BenchmarkGemm8(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	for _, sh := range GemmBenchShapes {
		b.Run(sh.Name, func(b *testing.B) {
			w := randW8(rng, sh.M*sh.K)
			x := randA8(rng, sh.K*sh.N)
			pw := PackB8(w, sh.M, sh.K)
			scales := make([]float32, sh.M)
			for i := range scales {
				scales[i] = 0.003
			}
			dst := make([]int8, sh.M*sh.N)
			var buf GemmBuf
			o := Gemm8Opts{RowScale: scales, InvOutScale: 21, ReLU: true, Buf: &buf}
			b.SetBytes(int64(sh.M*sh.K + sh.K*sh.N + sh.M*sh.N))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm8QInto(dst, pw, x, sh.N, o)
			}
		})
	}
}
