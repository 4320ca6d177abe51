package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// gemmKernel names the f32 GEMM kernel this test binary runs on where a
// build-tagged file knows it ("" elsewhere). Calibration runs the f32
// plan, so the activation scales are pinned per kernel: the AVX2+FMA
// kernel fuses multiply-add and the portable one does not.
var gemmKernel string

// servingEncoder is hdcserve's embedder network at seed: the micro
// ResNet-50 backbone at width, then the FC projection to d, drawn from
// one rng in the order core.NewImageEncoder draws them.
func servingEncoder(seed int64, width, d int) Layer {
	rng := rand.New(rand.NewSource(seed + 0x5eed))
	cfg := MicroResNet50Config(width)
	bb := NewResNet(rng, cfg)
	return NewSequential(bb, NewLinear(rng, cfg.Name+".proj", bb.OutDim(), d, true))
}

// servingCalibration is hdcserve's int8 calibration batch at seed: the
// 32 images of an 8-class × 4-image SynthCUB at img px.
func servingCalibration(seed int64, img int) *tensor.Tensor {
	cfg := dataset.DefaultConfig()
	cfg.NumClasses = 8
	cfg.ImagesPerClass = 4
	cfg.Height, cfg.Width = img, img
	cfg.Seed = seed + 0xca11b
	data := dataset.Generate(cfg)
	ids := make([]int, len(data.Instances))
	classes := make([]int, cfg.NumClasses)
	for i := range ids {
		ids[i] = i
	}
	for c := range classes {
		classes[c] = c
	}
	return data.MakeBatch(ids, dataset.ClassIndexMap(classes), nil, nil).Images
}

func appendF32(b []byte, xs ...float32) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// appendPacked appends a packed int8 weight matrix's panel bytes, then
// its per-row offsets. The fields are unexported in package tensor;
// reflect reads them without widening its API for one digest.
func appendPacked(b []byte, pw *tensor.PackedB8) []byte {
	v := reflect.ValueOf(pw).Elem()
	data, off := v.FieldByName("data"), v.FieldByName("rowOff")
	for i := 0; i < data.Len(); i++ {
		b = append(b, byte(data.Index(i).Int()))
	}
	for i := 0; i < off.Len(); i++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(off.Index(i).Int()))
	}
	return b
}

// qplanDigests hashes a quantized plan as three SHA-256 streams, in op
// order, so a drift names the part that moved:
//
//	scales: every activation scale an op bakes in (input quantize,
//	        requantize, residual, dequant), as IEEE-754 bits
//	deq:    each GEMM's per-output-channel weightScale·inputScale vector
//	pack:   each GEMM's PackB8 panel bytes and row offsets
func qplanDigests(q *qplan) (scales, deq, pack string) {
	var sb, db, pb []byte
	for _, op := range q.ops {
		switch o := op.(type) {
		case *opQuant8:
			sb = appendF32(sb, o.inv)
		case *opConv8:
			sb = appendF32(sb, o.invOut, o.accScale)
			db = appendF32(db, o.deq...)
			pb = appendPacked(pb, o.pw)
		case *opLinear8:
			sb = appendF32(sb, o.invOut)
			db = appendF32(db, o.deq...)
			pb = appendPacked(pb, o.pw)
		case *opAffine8:
			sb = appendF32(appendF32(sb, o.scale...), o.invOut)
		case *opAddReLU8:
			sb = appendF32(sb, o.sa, o.sb, o.invOut)
		case *opAvgPool8:
			sb = appendF32(sb, o.sIn, o.invOut)
		case *opToNCHWDeq8:
			sb = appendF32(sb, o.sIn)
		case *opDeqFlat8:
			sb = appendF32(sb, o.sIn)
		case *opDeqSame8:
			sb = appendF32(sb, o.sIn)
		}
	}
	hash := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	return hash(sb), hash(db), hash(pb)
}

// TestCalibratedInt8PlanDigest pins hdcserve's int8 embedder plan at the
// embed_classify geometry (seed 1, width 32, 32 px, d = 1536, its
// 32-image calibration batch): the activation scales calibration
// yields, the dequant vectors they feed, and the packed weights. A
// moved scales or deq digest means calibration changed its arithmetic,
// and with it every served embedding.
func TestCalibratedInt8PlanDigest(t *testing.T) {
	c := mustCompileQuantized(t, servingEncoder(1, 32, 1536), servingCalibration(1, 32))
	scales, deq, pack := qplanDigests(c.state.Load().q)
	const wantPack = "f83968ef8a08339a538faa6010dc53069c05d788691172fe79330c5431c1e8df"
	if pack != wantPack {
		t.Errorf("pack digest %s, want %s", pack, wantPack)
	}
	want := map[string][2]string{
		"avx2+fma": {
			"cb53a6411e2bbc6e0a6cc87122141151902dbc94bb52033f115137b864b52500",
			"48f909985153c53918ada0e8d6ca71d5d0a99757c1c15fdaae0050ed294a0975"},
		"portable": {
			"4868a394b6bc830380b137fe8c9ae09737e3d6cc8cb6df550877120cf48278bc",
			"6274293789d52a44874e7661e7634c05512df9aac4710c03c0993df90c18914a"},
	}
	w, ok := want[gemmKernel]
	if !ok {
		t.Skipf("scales are pinned for the amd64 kernels only (scales %s, deq %s)", scales, deq)
	}
	if scales != w[0] {
		t.Errorf("scales digest %s, want %s", scales, w[0])
	}
	if deq != w[1] {
		t.Errorf("deq digest %s, want %s", deq, w[1])
	}
}

// TestCompiledBatchInvariantPerSample pins what per-image calibration
// rests on: the f32 plan computes each sample's output bit for bit the
// same at batch 1 as inside a batch of 32. Nets: train_eval's (width 8)
// and hdcserve's embedder (width 32), at 16 and 32 px.
func TestCompiledBatchInvariantPerSample(t *testing.T) {
	for _, width := range []int{8, 32} {
		c := MustCompile(servingEncoder(1, width, 64))
		for _, img := range []int{16, 32} {
			x := servingCalibration(1, img)
			s := NewScratch()
			whole := c.Infer(x, s).Clone()
			per := x.Len() / x.Dim(0)
			d := whole.Dim(1)
			for i := 0; i < x.Dim(0); i++ {
				s.Reset()
				one := c.Infer(tensor.FromSlice(x.Data[i*per:(i+1)*per], 1, 3, img, img), s)
				for j, v := range one.Data {
					if w := whole.Data[i*d+j]; math.Float32bits(v) != math.Float32bits(w) {
						t.Fatalf("width %d, %d px: sample %d output %d is %v at batch 1, %v at batch %d",
							width, img, i, j, v, w, x.Dim(0))
					}
				}
			}
		}
	}
}

// wholeBatchMaxAbs is the reference calibration: one pass of the f32
// plan over the whole batch, scanning each value after its defining op.
func wholeBatchMaxAbs(pl *plan, x *tensor.Tensor) []float32 {
	s := NewScratch()
	n := x.Dim(0)
	slab := s.Grab(pl.slot * n)
	maxAbs := make([]float32, len(pl.valSize))
	scanMaxAbs(maxAbs, 0, x.Data)
	for _, op := range pl.ops {
		op.run(pl, slab, x.Data, n, s)
		if id := planOutID(op); id > 0 {
			scanMaxAbs(maxAbs, id, pl.val(id, slab, x.Data, n))
		}
	}
	return maxAbs
}

// TestCalibratePerImageMatchesWholeBatch pins calibratePlan's contract:
// for any GOMAXPROCS (one worker, an even split, an uneven one), every
// value's max|·| is bitwise the whole-batch pass's.
func TestCalibratePerImageMatchesWholeBatch(t *testing.T) {
	for _, width := range []int{8, 32} {
		x := servingCalibration(1, 32)
		pl, err := buildPlan(servingEncoder(1, width, 1536), planKey{3, 32, 32})
		if err != nil {
			t.Fatal(err)
		}
		want := wholeBatchMaxAbs(pl, x)
		for _, procs := range []int{1, 2, 3} {
			prev := runtime.GOMAXPROCS(procs)
			got := calibratePlan(pl, x)
			runtime.GOMAXPROCS(prev)
			for id := range want {
				if math.Float32bits(got[id]) != math.Float32bits(want[id]) {
					t.Fatalf("width %d, GOMAXPROCS %d: value %d max|v| %v, whole batch %v",
						width, procs, id, got[id], want[id])
				}
			}
		}
	}
}

// TestCompiledInt8Footprint pins what building hdcserve's int8 embedder
// costs in memory at the serving geometry, at a fixed GOMAXPROCS of 2
// so the per-worker calibration slabs count the same on every machine.
// One image per pass allocates ~45 MB, and what a GC leaves is the plan
// (3.4 MB of packed int8 weights) plus the projection's f32 panels the
// Linear layer caches (6 MB). A whole-batch pass through a pooled
// scratch allocates 135 MB and leaves 107 MB live, most of it that
// scratch parked in the shared pool, so it fails both bounds.
func TestCompiledInt8Footprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the footprint guard runs in non-race CI")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	net := servingEncoder(1, 32, 1536)
	calib := servingCalibration(1, 32)
	var before, built, after runtime.MemStats
	// Two cycles empty the scratch pool (primary, then victim cache), so
	// a scratch an earlier test parked there does not hide in before.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := mustCompileQuantized(t, net, calib)
	runtime.ReadMemStats(&built)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	const maxAllocMB, maxLiveMB = 56, 12
	allocMB := float64(built.TotalAlloc-before.TotalAlloc) / (1 << 20)
	liveMB := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	t.Logf("CompileQuantized allocated %.1f MB and left %.1f MB live", allocMB, liveMB)
	if allocMB > maxAllocMB {
		t.Errorf("CompileQuantized allocated %.1f MB, want at most %d", allocMB, maxAllocMB)
	}
	if liveMB > maxLiveMB {
		t.Errorf("CompileQuantized left %.1f MB live after GC, want at most %d", liveMB, maxLiveMB)
	}
}

// TestCalibrateKeepsOffScratchPool pins that calibration never touches
// the shared scratch pool: a calibration-sized slab put back there is
// handed to every later batch-1 Infer that draws from it, and stays
// resident for the life of the server.
func TestCalibrateKeepsOffScratchPool(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "compile_quant.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "calibratePlan" {
			continue
		}
		found = true
		ast.Inspect(fn, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "GetScratch" || id.Name == "PutScratch") {
				t.Errorf("calibratePlan calls %s", id.Name)
			}
			return true
		})
	}
	if !found {
		t.Fatal("compile_quant.go declares no calibratePlan")
	}
}
