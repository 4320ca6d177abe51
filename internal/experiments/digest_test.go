package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/nn"
)

// fmaKernels is set where the AVX2+FMA GEMM kernel runs. It fuses
// multiply-add, so trained weights differ bitwise from the portable
// kernel's (the CSVs below do not); weights are pinned only there.
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

// TestPaperDigest pins the numbers the reproduction exists to produce, at
// the micro scale: the Table I/II and Fig. 4/5 CSVs byte for byte, the
// trained weights of the preferred three-phase pipeline, and RunTCN's
// exact result (Fig. 4 plots it, rounded). A changed digest
// means a training or evaluation path changed its arithmetic.
func TestPaperDigest(t *testing.T) {
	sc := microScale()
	for _, tc := range []struct {
		name string
		csv  func() string
		want string
	}{
		{"table1", func() string { return RunTable1(sc).CSV() },
			"be242f5d1cdc00cd413f0994e3092a95e96b8d4eda71b721f36734d58041a734"},
		{"table2", func() string { return RunTable2(sc).CSV() },
			"49040acac91459d451eca9530c01709704ed3c1212951ecc35e7b93c195c219e"},
		{"fig4", func() string { return RunFig4(sc).CSV() },
			"95c0ff6d36750686ecc9695a9cefe193d72bd3ae2f1443a31256c486904ee804"},
		{"fig5", func() string { return RunFig5(sc).CSV() },
			"00cf0bb8b1d2b756d7928fbce81f7ef5aecfc3a1531f8aadaee47dac2962cb08"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sha256.Sum256([]byte(tc.csv()))
			if got := hex.EncodeToString(s[:]); got != tc.want {
				t.Errorf("CSV digest %s, want %s", got, tc.want)
			}
		})
	}

	d := sc.Dataset(1)
	split := sc.ZSSplit(d, 1)
	t.Run("pipeline weights", func(t *testing.T) {
		if !fmaKernels {
			t.Skip("trained weights are pinned for the AVX2+FMA kernel only")
		}
		m, _ := sc.Pipeline(1).Run(d, split, sc.Pretrain(1))
		const want = "4cfbbf155276def384d3276a213fa30fb247c1eebaa231f92b13052d20005474"
		if got := paramsDigest(m.Params()); got != want {
			t.Errorf("weights digest %s, want %s", got, want)
		}
	})
	t.Run("tcn", func(t *testing.T) {
		got := baselines.RunTCN(d, split, baselines.TCNConfig{
			Backbone: sc.Backbone(), EmbedDim: sc.ProjDim, MLPHidden: sc.ProjDim,
			Train: sc.Pipeline(1).PhaseIII, Seed: 1,
		})
		want := baselines.TCNResult{Top1: 0.4, Top5: 1, ParamCount: 121125}
		if got != want {
			t.Errorf("RunTCN = %+v, want %+v", got, want)
		}
	})
}
