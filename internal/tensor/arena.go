package tensor

// Arena is a slab-backed bump allocator for short-lived buffers: the
// per-call workspace of the compiled inference plans (internal/nn
// Scratch).
//
// Grab and Grab8 carve uninitialized slices out of large reusable slabs;
// Wrap hands a region out as a tensor; Reset reclaims everything at
// once. Tensor headers and shape slices are also served from
// arena-owned storage, so a warm arena hands out tensors with ZERO heap
// allocations per call — the property the zero-alloc guards on
// CompiledNet.Infer pin. An Arena is NOT safe for concurrent use — the
// intended pattern is one arena per goroutine (checked out of a
// sync.Pool), reset between independent inference calls.
type Arena struct {
	slabs [][]float32 // slabs[len-1] is the active slab
	off   int         // bump offset into the active slab
	total int         // total capacity across all slabs

	slabs8 [][]int8 // int8 slabs (quantized compiled plans)
	off8   int
	total8 int

	hdrs   []*Tensor // reusable tensor headers, recycled on Reset
	hdrOff int
	dims   []int // shape storage, recycled on Reset
	dimOff int
}

// arenaMinSlab is the minimum slab size in float32 elements (256 KiB).
// Small enough that a lone Linear layer doesn't pin megabytes, large
// enough that a ResNet forward touches only a handful of slabs before
// the first Reset coalesces them.
const arenaMinSlab = 1 << 16

// Grab returns an UNINITIALIZED slice of n float32s carved from the
// arena, valid until the next Reset: the contents are whatever a
// previous pass left behind. The compiled inference plan reserves its
// whole activation slab this way and overwrites every region it reads.
// Callers must not read elements they have not written.
func (a *Arena) Grab(n int) []float32 {
	if len(a.slabs) == 0 || n > len(a.slabs[len(a.slabs)-1])-a.off {
		size := arenaMinSlab
		if n > size {
			size = n
		}
		a.slabs = append(a.slabs, make([]float32, size))
		a.total += size
		a.off = 0
	}
	slab := a.slabs[len(a.slabs)-1]
	out := slab[a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

// header returns a recycled (or, on first use, new) tensor header. The
// header's previous contents are fully overwritten by the caller.
func (a *Arena) header() *Tensor {
	if a.hdrOff == len(a.hdrs) {
		a.hdrs = append(a.hdrs, new(Tensor))
	}
	t := a.hdrs[a.hdrOff]
	a.hdrOff++
	return t
}

// shapeCopy stores shape in arena-owned int storage and returns the
// stored copy. The block grows geometrically when a pass overflows it
// (like the float slabs), so after one warm pass the steady state hands
// out shapes allocation-free no matter how many tensors a pass needs.
func (a *Arena) shapeCopy(shape []int) []int {
	if a.dimOff+len(shape) > len(a.dims) {
		size := 2 * len(a.dims)
		if size < 256 {
			size = 256
		}
		if a.dimOff+len(shape) > size {
			size = a.dimOff + len(shape)
		}
		// Old handed-out shape slices keep the previous backing alive;
		// they are invalid after the next Reset anyway. The used prefix is
		// carried over so those slices' storage is not reused before Reset.
		dims := make([]int, size)
		copy(dims, a.dims[:a.dimOff])
		a.dims = dims
	}
	dst := a.dims[a.dimOff : a.dimOff+len(shape) : a.dimOff+len(shape)]
	a.dimOff += len(shape)
	copy(dst, shape)
	return dst
}

// Grab8 is Grab for int8 storage: an UNINITIALIZED slice of n int8s
// carved from the arena's int8 slabs, valid until the next Reset. The
// quantized compiled plan reserves its activation slab this way.
func (a *Arena) Grab8(n int) []int8 {
	if len(a.slabs8) == 0 || n > len(a.slabs8[len(a.slabs8)-1])-a.off8 {
		size := arenaMinSlab
		if n > size {
			size = n
		}
		a.slabs8 = append(a.slabs8, make([]int8, size))
		a.total8 += size
		a.off8 = 0
	}
	slab := a.slabs8[len(a.slabs8)-1]
	out := slab[a.off8 : a.off8+n : a.off8+n]
	a.off8 += n
	return out
}

// Wrap returns an arena-backed tensor header over data (not copied)
// with the given shape; the element count must match. This is how the
// compiled plan hands out its slab regions as tensors without heap
// allocations. The header is valid until the next Reset; callers that
// need the tensor to outlive the arena must Clone it first.
func (a *Arena) Wrap(data []float32, shape ...int) *Tensor {
	n := checkShape("Arena.Wrap", shape)
	if n != len(data) {
		panic("tensor.Arena.Wrap: element count mismatch")
	}
	t := a.header()
	t.Data = data
	t.shape = a.shapeCopy(shape)
	return t
}

// Reset reclaims every allocation at once, invalidating all tensors
// (headers included) handed out since the previous Reset. If the arena
// overflowed into multiple slabs, they are coalesced into one slab of
// the combined capacity, so the steady state after the first full pass
// is a single slab and zero per-call allocations.
func (a *Arena) Reset() {
	if len(a.slabs) > 1 {
		a.slabs = [][]float32{make([]float32, a.total)}
	}
	if len(a.slabs8) > 1 {
		a.slabs8 = [][]int8{make([]int8, a.total8)}
	}
	a.off = 0
	a.off8 = 0
	a.hdrOff = 0
	a.dimOff = 0
}
