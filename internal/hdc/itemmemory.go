package hdc

import (
	"fmt"
	"math/bits"
	"sort"
)

// ItemMemory is an associative memory over labeled hypervectors: the
// classic HDC classifier readout. Query returns the stored item with the
// highest similarity to a probe vector. The paper's similarity kernel is
// the real-valued analogue of this structure; ItemMemory provides the
// packed binary variant used on the edge-inference path
// (examples/edge_profile) where similarity is XOR + popcount.
//
// Stored vectors live in one contiguous word slab (row-major, wpv words
// per item) rather than a slice of per-item allocations, so the batched
// kernel DistancesInto streams the whole class memory cache-linearly.
// ItemMemory is the storage behind the infer engine's packed-binary
// backend (infer.NewBinaryBackend), which shards DistancesInto ranges
// across workers.
type ItemMemory struct {
	labels []string
	flat   []uint64 // all stored vectors back-to-back, wpv words each
	dim    int
	wpv    int // words per vector
}

// NewItemMemory returns an empty item memory for dimension d.
func NewItemMemory(d int) *ItemMemory {
	if d <= 0 {
		panic(fmt.Sprintf("hdc.NewItemMemory: non-positive dimension %d", d))
	}
	return &ItemMemory{dim: d, wpv: (d + 63) / 64}
}

// Store adds a labeled vector. Dimensions must match the memory. The
// vector is copied into the memory's contiguous slab; the caller's copy
// stays independent.
func (m *ItemMemory) Store(label string, v *Binary) {
	checkDims("ItemMemory.Store", m.dim, v.Dim())
	m.labels = append(m.labels, label)
	m.flat = append(m.flat, v.words...)
}

// ItemMemoryFromSlab constructs an item memory as a view over an
// externally owned word slab: labels[i] names the wpv words at
// flat[i*wpv:(i+1)*wpv]. Nothing is copied — the caller promises the
// viewed prefix is immutable for the lifetime of the view. This is the
// RCU seam of the live-enrollment path (internal/classmem): the
// versioned store appends new prototypes past every published prefix
// and publishes each epoch as a fresh zero-copy view over the shared
// backing, so readers on older epochs keep scanning the exact bytes
// they started with.
func ItemMemoryFromSlab(d int, labels []string, flat []uint64) *ItemMemory {
	if d <= 0 {
		panic(fmt.Sprintf("hdc.ItemMemoryFromSlab: non-positive dimension %d", d))
	}
	wpv := (d + 63) / 64
	if len(flat) != len(labels)*wpv {
		panic(fmt.Sprintf("hdc.ItemMemoryFromSlab: slab has %d words, want %d labels × %d words/vector", len(flat), len(labels), wpv))
	}
	return &ItemMemory{labels: labels, flat: flat, dim: d, wpv: wpv}
}

// Slab exposes the backing word slab (row-major, ⌈d/64⌉ words per
// item). Callers must treat the returned slice as read-only; it is
// how the versioned class memory seeds its growable backing from a
// frozen Build without re-encoding.
func (m *ItemMemory) Slab() []uint64 { return m.flat }

// Len returns the number of stored items.
func (m *ItemMemory) Len() int { return len(m.labels) }

// Dim returns the dimensionality of the stored vectors.
func (m *ItemMemory) Dim() int { return m.dim }

// row returns the packed words of item i as a subslice of the slab.
func (m *ItemMemory) row(i int) []uint64 { return m.flat[i*m.wpv : (i+1)*m.wpv] }

// Query returns the label and index of the stored vector nearest to probe
// (minimum Hamming distance), along with that distance. Ties resolve to
// the lowest index. Querying an empty memory panics. This is the
// sequential per-probe linear scan; batched workloads go through the
// infer engine, which shards DistancesInto across workers instead.
func (m *ItemMemory) Query(probe *Binary) (label string, index, distance int) {
	if len(m.labels) == 0 {
		panic("hdc.ItemMemory.Query: empty memory")
	}
	checkDims("ItemMemory.Query", m.dim, probe.Dim())
	best, bi := hammingWords(m.row(0), probe.words), 0
	for i := 1; i < len(m.labels); i++ {
		if h := hammingWords(m.row(i), probe.words); h < best {
			best, bi = h, i
		}
	}
	return m.labels[bi], bi, best
}

// QueryTopK returns the indices of the k nearest stored vectors in
// ascending distance order (ties by index), via a single sort over the
// distance vector — O(n log n) instead of the former O(n·k)
// repeated-minimum selection.
func (m *ItemMemory) QueryTopK(probe *Binary, k int) []int {
	if k <= 0 || k > len(m.labels) {
		panic(fmt.Sprintf("hdc.ItemMemory.QueryTopK: k=%d with %d items", k, len(m.labels)))
	}
	dists := make([]int, m.Len())
	m.DistancesInto(probe, 0, m.Len(), dists)
	idx := make([]int, m.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if dists[idx[a]] != dists[idx[b]] {
			return dists[idx[a]] < dists[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k:k]
}

// DistancesInto computes the Hamming distance from probe to every stored
// item in [lo, hi), writing item i's distance to dst[i-lo]. It allocates
// nothing and streams the contiguous slab with an 8-way-unrolled
// XOR+popcount inner loop — the sharded batch kernel of the infer
// engine's binary backend.
func (m *ItemMemory) DistancesInto(probe *Binary, lo, hi int, dst []int) {
	checkDims("ItemMemory.DistancesInto", m.dim, probe.Dim())
	if lo < 0 || hi > m.Len() || lo > hi {
		panic(fmt.Sprintf("hdc.ItemMemory.DistancesInto: range [%d,%d) with %d items", lo, hi, m.Len()))
	}
	if len(dst) < hi-lo {
		panic(fmt.Sprintf("hdc.ItemMemory.DistancesInto: dst len %d < range width %d", len(dst), hi-lo))
	}
	pwFull := probe.words
	flat, wpv := m.flat, m.wpv
	for i := lo; i < hi; i++ {
		cw := flat[i*wpv : i*wpv+wpv]
		// Reslicing the probe to the row length lets the compiler prove
		// both operands share bounds and drop the per-access checks
		// (~25% on this loop); the 8-way unroll keeps the popcount ports
		// busy. Deliberately duplicated in NearestInRange: a shared
		// helper is not inlined and the call overhead is measurable at
		// this grain.
		pw := pwFull[:len(cw)]
		var h int
		j := 0
		for ; j+8 <= len(cw); j += 8 {
			h += bits.OnesCount64(cw[j]^pw[j]) +
				bits.OnesCount64(cw[j+1]^pw[j+1]) +
				bits.OnesCount64(cw[j+2]^pw[j+2]) +
				bits.OnesCount64(cw[j+3]^pw[j+3]) +
				bits.OnesCount64(cw[j+4]^pw[j+4]) +
				bits.OnesCount64(cw[j+5]^pw[j+5]) +
				bits.OnesCount64(cw[j+6]^pw[j+6]) +
				bits.OnesCount64(cw[j+7]^pw[j+7])
		}
		for ; j < len(cw); j++ {
			h += bits.OnesCount64(cw[j] ^ pw[j])
		}
		dst[i-lo] = h
	}
}

// NearestInRange returns the index and Hamming distance of the stored
// item nearest to probe within [lo, hi), ties by lowest index. It fuses
// the slab scan with the minimum search in a single pass — the top-1
// fast path of the infer engine's binary backend. Common word widths
// (d = 1024, 1536, 2048) dispatch to fixed-width kernels whose row
// length is a compile-time constant, which is worth ~40% over the
// generic loop: converting each row to a *[W]uint64 lets the compiler
// drop every bounds check and keep the whole row walk in registers.
func (m *ItemMemory) NearestInRange(probe *Binary, lo, hi int) (index, distance int) {
	checkDims("ItemMemory.NearestInRange", m.dim, probe.Dim())
	if lo < 0 || hi > m.Len() || lo >= hi {
		panic(fmt.Sprintf("hdc.ItemMemory.NearestInRange: range [%d,%d) with %d items", lo, hi, m.Len()))
	}
	switch m.wpv {
	case 16:
		return nearest16(m.flat, (*[16]uint64)(probe.words), lo, hi)
	case 24:
		return nearest24(m.flat, (*[24]uint64)(probe.words), lo, hi)
	case 32:
		return nearest32(m.flat, (*[32]uint64)(probe.words), lo, hi)
	}
	pwFull := probe.words
	flat, wpv := m.flat, m.wpv
	best, bi := m.dim+1, lo
	for i := lo; i < hi; i++ {
		cw := flat[i*wpv : i*wpv+wpv]
		pw := pwFull[:len(cw)]
		var h int
		j := 0
		for ; j+8 <= len(cw); j += 8 {
			h += bits.OnesCount64(cw[j]^pw[j]) +
				bits.OnesCount64(cw[j+1]^pw[j+1]) +
				bits.OnesCount64(cw[j+2]^pw[j+2]) +
				bits.OnesCount64(cw[j+3]^pw[j+3]) +
				bits.OnesCount64(cw[j+4]^pw[j+4]) +
				bits.OnesCount64(cw[j+5]^pw[j+5]) +
				bits.OnesCount64(cw[j+6]^pw[j+6]) +
				bits.OnesCount64(cw[j+7]^pw[j+7])
		}
		for ; j < len(cw); j++ {
			h += bits.OnesCount64(cw[j] ^ pw[j])
		}
		if h < best {
			best, bi = h, i
		}
	}
	return bi, best
}

// The fixed-width argmin kernels below are deliberate triplicates: Go
// generics cannot parameterize over array lengths (no common core type
// to index), and routing each row through a shared helper re-introduces
// the call overhead the specialization removes. Each variant differs
// from the others only in the array width.

func nearest16(flat []uint64, probe *[16]uint64, lo, hi int) (int, int) {
	best, bi := 16*64+1, lo
	for i := lo; i < hi; i++ {
		cw := (*[16]uint64)(flat[i*16 : i*16+16])
		var h int
		for j := 0; j < 16; j += 8 {
			h += bits.OnesCount64(cw[j]^probe[j]) +
				bits.OnesCount64(cw[j+1]^probe[j+1]) +
				bits.OnesCount64(cw[j+2]^probe[j+2]) +
				bits.OnesCount64(cw[j+3]^probe[j+3]) +
				bits.OnesCount64(cw[j+4]^probe[j+4]) +
				bits.OnesCount64(cw[j+5]^probe[j+5]) +
				bits.OnesCount64(cw[j+6]^probe[j+6]) +
				bits.OnesCount64(cw[j+7]^probe[j+7])
		}
		if h < best {
			best, bi = h, i
		}
	}
	return bi, best
}

func nearest24(flat []uint64, probe *[24]uint64, lo, hi int) (int, int) {
	best, bi := 24*64+1, lo
	for i := lo; i < hi; i++ {
		cw := (*[24]uint64)(flat[i*24 : i*24+24])
		var h int
		for j := 0; j < 24; j += 8 {
			h += bits.OnesCount64(cw[j]^probe[j]) +
				bits.OnesCount64(cw[j+1]^probe[j+1]) +
				bits.OnesCount64(cw[j+2]^probe[j+2]) +
				bits.OnesCount64(cw[j+3]^probe[j+3]) +
				bits.OnesCount64(cw[j+4]^probe[j+4]) +
				bits.OnesCount64(cw[j+5]^probe[j+5]) +
				bits.OnesCount64(cw[j+6]^probe[j+6]) +
				bits.OnesCount64(cw[j+7]^probe[j+7])
		}
		if h < best {
			best, bi = h, i
		}
	}
	return bi, best
}

func nearest32(flat []uint64, probe *[32]uint64, lo, hi int) (int, int) {
	best, bi := 32*64+1, lo
	for i := lo; i < hi; i++ {
		cw := (*[32]uint64)(flat[i*32 : i*32+32])
		var h int
		for j := 0; j < 32; j += 8 {
			h += bits.OnesCount64(cw[j]^probe[j]) +
				bits.OnesCount64(cw[j+1]^probe[j+1]) +
				bits.OnesCount64(cw[j+2]^probe[j+2]) +
				bits.OnesCount64(cw[j+3]^probe[j+3]) +
				bits.OnesCount64(cw[j+4]^probe[j+4]) +
				bits.OnesCount64(cw[j+5]^probe[j+5]) +
				bits.OnesCount64(cw[j+6]^probe[j+6]) +
				bits.OnesCount64(cw[j+7]^probe[j+7])
		}
		if h < best {
			best, bi = h, i
		}
	}
	return bi, best
}

// hammingWords is the plain popcount distance over two equal-length word
// slices, the per-probe scan kernel.
func hammingWords(a, b []uint64) int {
	var h int
	for i := range a {
		h += bits.OnesCount64(a[i] ^ b[i])
	}
	return h
}

// Vector returns a copy of stored item i.
func (m *ItemMemory) Vector(i int) *Binary {
	out := NewBinary(m.dim)
	copy(out.words, m.row(i))
	return out
}

// Label returns the label of item i.
func (m *ItemMemory) Label(i int) string { return m.labels[i] }

// Bytes returns the packed storage footprint of all stored vectors.
func (m *ItemMemory) Bytes() int { return len(m.flat) * 8 }
