package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"
)

// digestConfigs spans the class counts and geometries the tree generates
// at: the test default, a small noisy set, and the CUB-200 class count.
var digestConfigs = []struct {
	cfg  Config
	want string // datasetDigest(Generate(cfg))
}{
	{DefaultConfig(), "68fb54291a21a74ca16264039ad423a694399f10140509d5fe6b283241af8c0e"},
	{Config{NumClasses: 7, ImagesPerClass: 3, Height: 12, Width: 12, AttrNoise: 0.25, PixelNoise: 0.1, Seed: 42}, "009bdee953ea68052992618a8e13042c92db59a1d475624925242fe2a84b5bae"},
	{Config{NumClasses: 200, ImagesPerClass: 1, Height: 8, Width: 10, AttrNoise: 0.1, PixelNoise: 0.05, Seed: 3}, "bcfcd70113c8953a30f019815ee4e90e2486f7a2194d60981886b6466a1d4cea"},
}

// datasetDigest is SHA-256 over little-endian bytes: per class name,
// uint32 byte length then the name bytes; ClassAttr.Data row-major as
// float32 bits (uint32); then per instance in order, uint32 Class, its
// Attr as float32 bits and its Image.Data as float32 bits.
func datasetDigest(d *SynthCUB) string {
	var b []byte
	f32 := func(xs []float32) {
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
	}
	for _, n := range d.ClassNames {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(n)))
		b = append(b, n...)
	}
	f32(d.ClassAttr.Data)
	for _, in := range d.Instances {
		b = binary.LittleEndian.AppendUint32(b, uint32(in.Class))
		f32(in.Attr)
		f32(in.Image.Data)
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestGenerateDigest pins every byte Generate produces, so splitting the
// class sampling out of it (or any later change to the generator) cannot
// shift the rng stream the instances are drawn from.
func TestGenerateDigest(t *testing.T) {
	for _, tc := range digestConfigs {
		if got := datasetDigest(Generate(tc.cfg)); got != tc.want {
			t.Errorf("Generate(%+v) digest %s, want %s", tc.cfg, got, tc.want)
		}
	}
}

func TestGenerateClassesMatchesGenerate(t *testing.T) {
	for _, tc := range digestConfigs {
		for _, seed := range []int64{tc.cfg.Seed, tc.cfg.Seed + 1} {
			cfg := tc.cfg
			cfg.Seed = seed
			full := Generate(cfg)
			names, attr := GenerateClasses(cfg)
			if !slices.Equal(names, full.ClassNames) {
				t.Fatalf("seed %d: GenerateClasses names differ from Generate", seed)
			}
			if !slices.Equal(attr.Shape(), full.ClassAttr.Shape()) {
				t.Fatalf("seed %d: ClassAttr shape %v, Generate has %v", seed, attr.Shape(), full.ClassAttr.Shape())
			}
			for i, x := range attr.Data {
				if math.Float32bits(x) != math.Float32bits(full.ClassAttr.Data[i]) {
					t.Fatalf("seed %d: ClassAttr element %d is %v, Generate has %v", seed, i, x, full.ClassAttr.Data[i])
				}
			}
		}
	}
}

func TestGenerateClassesPanicsOnBadClassCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GenerateClasses accepted a single class")
		}
	}()
	GenerateClasses(Config{NumClasses: 1})
}
