package baselines

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/attrenc"
	"repro/internal/core"
	"repro/internal/nn"
)

// fmaKernels is set where the AVX2+FMA GEMM kernel runs. It fuses
// multiply-add, so trained weights differ bitwise from the portable
// kernel's; they are pinned only there.
var fmaKernels bool

// paramsDigest hashes every parameter value in order as little-endian
// IEEE-754 float32 bits.
func paramsDigest(params []*nn.Param) string {
	var b []byte
	for _, p := range params {
		for _, x := range p.Value.Data {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestTrainDigest pins the weights every baseline training loop leaves
// behind (Finetag, A3M and the TCN contrastive loop) and the exact
// result of the generative pipeline, whose nets RunFeatGen keeps to
// itself. A changed digest means a loop changed its step arithmetic or
// its RNG draw order.
func TestTrainDigest(t *testing.T) {
	d, split := tinyData(11)
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = 2
	weights := []struct {
		name, want string
		train      func() []*nn.Param
	}{
		{"finetag", "7fb91d771274ee373e870a8b7bfe3d0db1b749a59b0f53031c8a8efb2c1841d4", func() []*nn.Param {
			f := NewFinetag(rand.New(rand.NewSource(11)), tinyBackbone(), d.Schema.Alpha())
			f.Train(d, split, cfg)
			return f.Params()
		}},
		{"a3m", "70e367076504e2ad1da946c4ae7610afffc04d025c1ea4b41d3b755ba16c98b8", func() []*nn.Param {
			a := NewA3M(rand.New(rand.NewSource(11)), tinyBackbone(), d.Schema)
			a.Train(d, split, cfg)
			return a.Params()
		}},
		{"tcn", "6481836cbc2627f5f2fe409c0246377447f40d1991c7348017d20d7286546ed7", func() []*nn.Param {
			rng := rand.New(rand.NewSource(11))
			m := core.NewModel(core.NewImageEncoder(rng, tinyBackbone(), 48),
				attrenc.NewMLPEncoder(rng, d.Schema.Alpha(), 64, 48),
				core.NewSimilarityKernel(cfg.TempScale))
			trainContrastive(m, d, split, cfg)
			return m.Params()
		}},
	}
	for _, tc := range weights {
		t.Run(tc.name, func(t *testing.T) {
			if !fmaKernels {
				t.Skip("trained weights are pinned for the AVX2+FMA kernel only")
			}
			if got := paramsDigest(tc.train()); got != tc.want {
				t.Errorf("weights digest %s, want %s", got, tc.want)
			}
		})
	}
	t.Run("featgen", func(t *testing.T) {
		fg := DefaultFeatGenConfig()
		fg.GenEpochs, fg.ClsEpochs, fg.PerClass = 4, 4, 8
		fg.HiddenGen, fg.HiddenCls = 64, 48
		got := RunFeatGen(core.NewImageEncoder(rand.New(rand.NewSource(11)), tinyBackbone(), 0), d, split, fg)
		want := FeatGenResult{Name: "FeatGen", Top1: 0.25, Top5: 1, ParamCount: 112064}
		if got != want {
			t.Errorf("RunFeatGen = %#v, want %#v", got, want)
		}
	})
}
