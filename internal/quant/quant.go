// Package quant provides the weight quantization behind the digital
// edge-inference path of the paper's §V outlook: symmetric int8
// post-training quantization of the trained network so that the full
// deployed model — int8 embedder, 1-bit attribute codebooks,
// XOR/popcount or integer similarity — fits the memory and arithmetic
// budget of an always-on accelerator [38].
//
// Quantization is symmetric PER CHANNEL: each output channel ch gets
// its own scale s_ch = max|w_ch|/qmax and q = round(w/s_ch) clamped to
// [−qmax, qmax], so one outlier channel no longer wastes the integer
// range of every other.
//
// QuantizeChannels is the one quantization core in the repository: the
// compiled int8 inference plans (nn.CompileQuantized) use it at qmax =
// tensor.Gemm8WMax, the reduced range the AVX2 VPMADDUBSW kernel needs
// for saturation-free exact accumulation.
package quant

import (
	"fmt"
	"math"
)

// QuantizeChannels quantizes w per channel with symmetric scales:
// channel ch occupies the elements w[ch·chStride + j·elemStride] for
// j in [0, count), and gets scales[ch] = max_j|w|/qmax (1 if the
// channel is all zero) with q = round(w/scale) clamped to [−qmax,
// qmax]. q and scales are written at the same strides/indices. The
// compiled int8 plans call it through QuantizeRows (per-row channels,
// qmax tensor.Gemm8WMax).
func QuantizeChannels(q []int8, scales []float32, w []float32, channels, count, chStride, elemStride, qmax int) {
	if qmax <= 0 || qmax > 127 {
		panic(fmt.Sprintf("quant.QuantizeChannels: qmax %d outside (0, 127]", qmax))
	}
	for ch := 0; ch < channels; ch++ {
		base := ch * chStride
		var maxAbs float32
		for j := 0; j < count; j++ {
			v := w[base+j*elemStride]
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			maxAbs = 1
		}
		s := maxAbs / float32(qmax)
		scales[ch] = s
		for j := 0; j < count; j++ {
			r := math.Round(float64(w[base+j*elemStride] / s))
			if r > float64(qmax) {
				r = float64(qmax)
			}
			if r < -float64(qmax) {
				r = -float64(qmax)
			}
			q[base+j*elemStride] = int8(r)
		}
	}
}

// QuantizeRows quantizes a row-major matrix with one symmetric scale
// per row — the form the inference-graph compiler feeds folded conv
// weight matrices [outC, K] and transposed projection weights through.
func QuantizeRows(q []int8, scales []float32, w []float32, rows, cols, qmax int) {
	QuantizeChannels(q, scales, w, rows, cols, cols, 1, qmax)
}
