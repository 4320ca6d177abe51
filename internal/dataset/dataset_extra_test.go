package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRendererCellBoundsCoverAllGroups(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumClasses = 2
	cfg.ImagesPerClass = 1
	d := Generate(cfg)
	r := d.renderer
	// Every group's cell must be non-empty and inside the image.
	for g := range d.Schema.Groups {
		y0, y1, x0, x1 := r.cellBounds(g)
		if y0 >= y1 || x0 >= x1 {
			t.Fatalf("group %d has empty cell [%d,%d)x[%d,%d)", g, y0, y1, x0, x1)
		}
		if y1 > cfg.Height || x1 > cfg.Width || y0 < 0 || x0 < 0 {
			t.Fatalf("group %d cell out of image bounds", g)
		}
	}
	// Cells of different groups must not overlap.
	owner := make([][]int, cfg.Height)
	for y := range owner {
		owner[y] = make([]int, cfg.Width)
		for x := range owner[y] {
			owner[y][x] = -1
		}
	}
	for g := range d.Schema.Groups {
		y0, y1, x0, x1 := r.cellBounds(g)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				if owner[y][x] != -1 {
					t.Fatalf("pixel (%d,%d) owned by groups %d and %d", y, x, owner[y][x], g)
				}
				owner[y][x] = g
			}
		}
	}
}

func TestSameValueRendersSimilarlyAcrossInstances(t *testing.T) {
	// Two instances with identical attribute profiles and no noise must
	// render within illumination jitter of each other.
	cfg := DefaultConfig()
	cfg.NumClasses = 2
	cfg.ImagesPerClass = 1
	cfg.PixelNoise = 0
	cfg.AttrNoise = 0
	d := Generate(cfg)
	rng := rand.New(rand.NewSource(1))
	active := make([]int, d.Schema.NumGroups())
	a := d.renderer.render(rng, active, 0)
	b := d.renderer.render(rng, active, 0)
	var dist float64
	for i := range a.Data {
		dd := float64(a.Data[i] - b.Data[i])
		dist += dd * dd
	}
	dist /= float64(a.Len())
	if dist > 0.01 {
		t.Fatalf("same attribute profile renders too differently: mse %v", dist)
	}
}

func TestDifferentValueChangesOnlyItsCell(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PixelNoise = 0
	d := Generate(cfg)
	rng1 := rand.New(rand.NewSource(2))
	rng2 := rand.New(rand.NewSource(2)) // same jitter stream
	base := make([]int, d.Schema.NumGroups())
	alt := append([]int(nil), base...)
	const changed = 5
	alt[changed] = 1
	a := d.renderer.render(rng1, base, 0)
	b := d.renderer.render(rng2, alt, 0)
	y0, y1, x0, x1 := d.renderer.cellBounds(changed)
	plane := cfg.Height * cfg.Width
	var insideDiff, outsideDiff float64
	for ch := 0; ch < 3; ch++ {
		for y := 0; y < cfg.Height; y++ {
			for x := 0; x < cfg.Width; x++ {
				idx := ch*plane + y*cfg.Width + x
				dd := float64(a.Data[idx] - b.Data[idx])
				if y >= y0 && y < y1 && x >= x0 && x < x1 {
					insideDiff += dd * dd
				} else {
					outsideDiff += dd * dd
				}
			}
		}
	}
	if outsideDiff > 1e-9 {
		t.Fatalf("changing one group's value leaked outside its cell: %v", outsideDiff)
	}
	if insideDiff < 1e-4 {
		t.Fatalf("changing a value did not change its cell: %v", insideDiff)
	}
}

func TestZSSplitPanicsOnBadFrac(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumClasses = 4
	cfg.ImagesPerClass = 2
	d := Generate(cfg)
	for _, frac := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ZSSplit accepted frac %v", frac)
				}
			}()
			d.ZSSplit(rand.New(rand.NewSource(1)), frac)
		}()
	}
}

func TestNoZSSplitPanicsOnBadClassCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumClasses = 4
	cfg.ImagesPerClass = 2
	d := Generate(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("NoZSSplit accepted too many classes")
		}
	}()
	d.NoZSSplit(rand.New(rand.NewSource(1)), 100, 0.5)
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{NumClasses: 1, ImagesPerClass: 2, Height: 8, Width: 8},
		{NumClasses: 4, ImagesPerClass: 0, Height: 8, Width: 8},
		{NumClasses: 4, ImagesPerClass: 2, Height: 0, Width: 8},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Generate accepted %+v", cfg)
				}
			}()
			Generate(cfg)
		}()
	}
}

// Property: rotation by θ then −θ is close to identity away from borders
// (nearest-neighbour sampling loses corners, so check the center patch).
func TestPropertyRotateApproxInverse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PixelNoise = 0
	d := Generate(cfg)
	img := d.Instances[0].Image
	f := func(raw int8) bool {
		deg := float64(raw % 45)
		back := Rotate(Rotate(img, deg), -deg)
		h, w := cfg.Height, cfg.Width
		var diff float64
		var count int
		for y := h / 3; y < 2*h/3; y++ {
			for x := w / 3; x < 2*w/3; x++ {
				dd := float64(back.At(0, y, x) - img.At(0, y, x))
				diff += dd * dd
				count++
			}
		}
		return diff/float64(count) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchIteratorDeterministicUnderSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumClasses = 6
	cfg.ImagesPerClass = 4
	d := Generate(cfg)
	sp := d.ZSSplit(rand.New(rand.NewSource(3)), 0.5)
	mk := func() []int {
		it := NewBatchIterator(d, sp.Train, sp.TrainClasses, 4, nil, rand.New(rand.NewSource(4)))
		var labels []int
		for i := 0; i < it.BatchesPerEpoch(); i++ {
			labels = append(labels, it.Next().Labels...)
		}
		return labels
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("iterator order not deterministic under fixed seed")
		}
	}
}

func TestClassAttrRowsSubset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumClasses = 5
	cfg.ImagesPerClass = 1
	d := Generate(cfg)
	rows := d.ClassAttrRows([]int{3, 1})
	if rows.Dim(0) != 2 || rows.Dim(1) != d.Schema.Alpha() {
		t.Fatalf("shape %v", rows.Shape())
	}
	for j := 0; j < rows.Dim(1); j++ {
		if rows.At(0, j) != d.ClassAttr.At(3, j) || rows.At(1, j) != d.ClassAttr.At(1, j) {
			t.Fatal("ClassAttrRows copied wrong rows")
		}
	}
}
