package infer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hdc"
	"repro/internal/imc"
	"repro/internal/tensor"
)

// checkLabels validates an optional label set against the class count and
// fills in positional defaults when nil.
func checkLabels(labels []string, classes int, who string) []string {
	if labels == nil {
		labels = make([]string, classes)
		for i := range labels {
			labels[i] = fmt.Sprintf("class%d", i)
		}
	}
	if len(labels) != classes {
		panic(fmt.Sprintf("infer.%s: %d labels for %d classes", who, len(labels), classes))
	}
	return labels
}

// --- Class-row source ----------------------------------------------------

// classRows is where the float and crossbar backends read class rows
// from: a dense [C, d] matrix (core's trained, non-bipolar embeddings)
// or the packed sign words of an hdc.ItemMemory (classmem's
// prototypes), expanded to exactly ±1 only when a tile is built.
type classRows struct {
	phi    *tensor.Tensor  // dense source, or nil
	items  *hdc.ItemMemory // packed source, or nil
	labels []string        // dense-source labels
	n, d   int
}

func denseRows(phi *tensor.Tensor, labels []string, who string) classRows {
	if phi.Rank() != 2 {
		panic(fmt.Sprintf("infer.%s: want rank-2 phi, have %v", who, phi.Shape()))
	}
	return classRows{phi: phi, labels: checkLabels(labels, phi.Dim(0), who), n: phi.Dim(0), d: phi.Dim(1)}
}

func itemRows(mem *hdc.ItemMemory) classRows {
	return classRows{items: mem, n: mem.Len(), d: mem.Dim()}
}

func (r *classRows) Classes() int { return r.n }
func (r *classRows) Dim() int     { return r.d }

func (r *classRows) Label(c int) string {
	if r.items != nil {
		return r.items.Label(c)
	}
	return r.labels[c]
}

// rows returns classes [lo, hi) as a [hi-lo, d] matrix: a zero-copy
// view of the dense source, or the ±1 expansion of the packed words.
//
//hdc:coldpath tiles are built once per shard range and cached
func (r *classRows) rows(lo, hi int) *tensor.Tensor {
	if r.items == nil {
		return tensor.FromSlice(r.phi.Data[lo*r.d:hi*r.d], hi-lo, r.d)
	}
	t := tensor.New(hi-lo, r.d)
	for c := lo; c < hi; c++ {
		copy(t.Row(c-lo), r.items.Vector(c).ToBipolar().Float32())
	}
	return t
}

// --- Float backend -------------------------------------------------------

// FloatBackend is the reference real-valued path: cosine similarity
// against a frozen class-embedding matrix, scaled by 1/K — the
// evaluation-time semantics of core.SimilarityKernel. The batch dot
// products run through the packed register-blocked GEMM over a cached
// transpose-packed tile of the class memory per shard range (the same
// kernel and accumulation order the noise-free crossbar path uses, so
// an ideal crossbar built from the same matrix still produces
// bit-identical scores — see imc.Crossbar.MatMulTInto).
type FloatBackend struct {
	classRows
	k float32

	// caches holds the per-shard packed ϕᵀ tiles and per-shape logits
	// pools behind one atomic pointer to an immutable snapshot (the
	// copy-on-write idiom of nn's compiledState): shard ranges and batch
	// shapes stabilize after the first queries, so the steady-state read
	// path is lock-free — concurrent ScoreShard calls never contend on a
	// mutex for a write-once cache. Misses take mu, copy, and publish.
	mu     sync.Mutex
	caches atomic.Pointer[floatCaches]
}

// floatCaches is one immutable cache snapshot of a FloatBackend.
type floatCaches struct {
	tiles    map[[2]int]*floatTile // per shard range [lo, hi)
	dstPools map[[2]int]*sync.Pool // per [probes, width]: pooled logits tensors
}

// floatTile is one shard range's packed ϕᵀ and the L2 norms of the
// same rows.
type floatTile struct {
	pb    *tensor.PackedB
	norms []float32
}

// NewFloatBackend wraps frozen class embeddings phi [C, d] with optional
// labels (nil → positional) and temperature k.
func NewFloatBackend(phi *tensor.Tensor, labels []string, k float32) *FloatBackend {
	return newFloatBackend(denseRows(phi, labels, "NewFloatBackend"), k)
}

// NewItemFloatBackend is the float backend over the packed prototypes of
// mem (labels from the memory).
func NewItemFloatBackend(mem *hdc.ItemMemory, k float32) *FloatBackend {
	return newFloatBackend(itemRows(mem), k)
}

func newFloatBackend(rows classRows, k float32) *FloatBackend {
	if k <= 0 {
		panic("infer.FloatBackend: temperature must be positive")
	}
	return &FloatBackend{classRows: rows, k: k}
}

func (b *FloatBackend) Name() string { return "float" }

// Requires declares the dense-probe requirement, so the engine rejects
// packed-only batches at the query boundary instead of panicking here.
func (b *FloatBackend) Requires() Representation { return RepDense }

// ScoreShard computes cos(x_p, phi_c)/K for classes [lo, hi): one
// packed GEMM x·ϕ[lo:hi)ᵀ over the shard's cached weight tile, then the
// cosine normalization into the engine's float64 score rows. Steady
// state allocates nothing (cached tile, pooled logits, pooled GEMM
// workspace).
func (b *FloatBackend) ScoreShard(batch *Batch, lo, hi int, out [][]float64) {
	if batch.Dense == nil {
		panic("infer.FloatBackend: batch has no dense probes")
	}
	x := batch.Dense
	if x.Dim(1) != b.Dim() {
		panic(fmt.Sprintf("infer.FloatBackend: probe dim %d, class memory dim %d", x.Dim(1), b.Dim()))
	}
	xn := batch.DenseNorms()
	n, width := x.Dim(0), hi-lo
	pool := b.dstPool(n, width)
	dst := pool.Get().(*tensor.Tensor)
	t := b.tile(lo, hi)
	tensor.GemmInto(dst, x, nil, tensor.GemmOpts{PB: t.pb})
	for p := 0; p < n; p++ {
		drow := dst.Row(p)
		op := out[p]
		for j, dot := range drow {
			den := xn.Data[p] * t.norms[j] * b.k
			if den == 0 {
				op[j] = 0
				continue
			}
			op[j] = float64(dot / den)
		}
	}
	pool.Put(dst)
}

// tile returns the packed class tile for [lo, hi), building and
// publishing it on first use of that shard range. Published rows are
// immutable, so tiles never invalidate; hits are lock-free.
func (b *FloatBackend) tile(lo, hi int) *floatTile {
	key := [2]int{lo, hi}
	if c := b.caches.Load(); c != nil {
		if t, ok := c.tiles[key]; ok {
			return t
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.caches.Load()
	if cur != nil {
		if t, ok := cur.tiles[key]; ok {
			return t
		}
	}
	rows := b.rows(lo, hi)
	t := &floatTile{pb: tensor.PackBT(rows), norms: tensor.RowNorms(rows).Data}
	b.caches.Store(cur.cloneWith(key, t, [2]int{}, nil))
	return t
}

// dstPool returns the pool serving [n, width] logits tensors, creating
// and publishing it on first use of that shape; hits are lock-free.
func (b *FloatBackend) dstPool(n, width int) *sync.Pool {
	key := [2]int{n, width}
	if c := b.caches.Load(); c != nil {
		if p, ok := c.dstPools[key]; ok {
			return p
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.caches.Load()
	if cur != nil {
		if p, ok := cur.dstPools[key]; ok {
			return p
		}
	}
	pool := &sync.Pool{New: func() any { return tensor.New(n, width) }}
	next := cur.cloneWith([2]int{}, nil, key, pool)
	b.caches.Store(next)
	return next.dstPools[key]
}

// cloneWith copies the snapshot (nil receiver = empty) and adds the
// non-nil entries.
func (c *floatCaches) cloneWith(tileKey [2]int, t *floatTile, poolKey [2]int, pool *sync.Pool) *floatCaches {
	next := &floatCaches{
		tiles:    map[[2]int]*floatTile{},
		dstPools: map[[2]int]*sync.Pool{},
	}
	if c != nil {
		//hdc:allow determinism copy-on-write into a fresh map; key order does not affect the published caches
		for k, v := range c.tiles {
			next.tiles[k] = v
		}
		//hdc:allow determinism copy-on-write into a fresh map; key order does not affect the published caches
		for k, v := range c.dstPools {
			next.dstPools[k] = v
		}
	}
	if t != nil {
		next.tiles[tileKey] = t
	}
	if pool != nil {
		next.dstPools[poolKey] = pool
	}
	return next
}

// --- Packed-binary backend -----------------------------------------------

// BinaryBackend is the edge path: XOR+popcount Hamming readout over the
// contiguous slab of an hdc.ItemMemory, with the Hamming distance mapped
// to its bipolar-cosine equivalent 1 − 2h/d so scores are comparable
// (and rankings identical, ties included) across backends.
type BinaryBackend struct {
	mem  *hdc.ItemMemory
	pool sync.Pool // *[]int distance scratch, one per in-flight shard
}

// NewBinaryBackend wraps a populated item memory. Labels come from the
// memory itself.
func NewBinaryBackend(mem *hdc.ItemMemory) *BinaryBackend {
	if mem.Len() == 0 {
		panic("infer.NewBinaryBackend: empty item memory")
	}
	return &BinaryBackend{mem: mem}
}

func (b *BinaryBackend) Name() string       { return "binary" }
func (b *BinaryBackend) Classes() int       { return b.mem.Len() }
func (b *BinaryBackend) Dim() int           { return b.mem.Dim() }
func (b *BinaryBackend) Label(c int) string { return b.mem.Label(c) }

// Requires declares the packed-probe requirement; dense-only batches
// also satisfy it via lazy sign-packing (Batch.SignPacked).
func (b *BinaryBackend) Requires() Representation { return RepPacked }

// ScoreShard streams the slab range [lo, hi) per probe through the
// non-allocating batched kernel ItemMemory.DistancesInto.
func (b *BinaryBackend) ScoreShard(batch *Batch, lo, hi int, out [][]float64) {
	probes := batch.SignPacked()
	if probes == nil {
		panic("infer.BinaryBackend: batch has no packed or dense probes")
	}
	width := hi - lo
	dp := b.distBuf(width)
	dists := (*dp)[:width]
	invD := 1 / float64(b.mem.Dim())
	for p, probe := range probes {
		b.mem.DistancesInto(probe, lo, hi, dists)
		op := out[p]
		for j, h := range dists {
			op[j] = 1 - 2*float64(h)*invD
		}
	}
	b.pool.Put(dp)
}

// distBuf pops a pooled distance buffer of at least width ints. The
// pool holds *[]int boxes so checking one out and back allocates
// nothing in steady state.
func (b *BinaryBackend) distBuf(width int) *[]int {
	var dp *[]int
	if v := b.pool.Get(); v != nil {
		dp = v.(*[]int)
	} else {
		dp = new([]int)
	}
	if cap(*dp) < width {
		*dp = make([]int, width)
	}
	return dp
}

// SelectShard is the fused ShardSelector fast path: score and select in
// one pass over the slab, never materializing the float64 score matrix.
// Top-1 queries run the single-pass fused argmin kernel; larger k reuses
// the pooled integer distance buffer.
func (b *BinaryBackend) SelectShard(batch *Batch, lo, hi, k int, cands []Hit) int {
	probes := batch.SignPacked()
	if probes == nil {
		panic("infer.BinaryBackend: batch has no packed or dense probes")
	}
	width := hi - lo
	kk := k
	if kk > width {
		kk = width
	}
	invD := 1 / float64(b.mem.Dim())
	if kk == 1 {
		for p, probe := range probes {
			idx, dist := b.mem.NearestInRange(probe, lo, hi)
			cands[p*k] = Hit{Class: idx, Score: 1 - 2*float64(dist)*invD}
		}
		return 1
	}
	dp := b.distBuf(width)
	dists := (*dp)[:width]
	for p, probe := range probes {
		b.mem.DistancesInto(probe, lo, hi, dists)
		selectTopKDist(dists, lo, invD, cands[p*k:p*k+kk])
	}
	b.pool.Put(dp)
	return kk
}

// selectTopKDist mirrors selectTopK over integer Hamming distances,
// mapping each to its bipolar-cosine score inline (monotone decreasing
// in distance, so ordering and tie-breaking match the generic path
// exactly).
func selectTopKDist(dists []int, lo int, invD float64, dst []Hit) {
	k := len(dst)
	count := 0
	for j, h := range dists {
		sc := 1 - 2*float64(h)*invD
		if count == k && sc <= dst[count-1].Score {
			continue
		}
		pos := count
		if pos == k {
			pos = k - 1
		}
		for pos > 0 && dst[pos-1].Score < sc {
			pos--
		}
		if count < k {
			count++
		}
		copy(dst[pos+1:count], dst[pos:count-1])
		dst[pos] = Hit{Class: lo + j, Score: sc}
	}
}

// --- IMC crossbar backend ------------------------------------------------

// CrossbarBackend is the analog in-memory-computing path: the class
// embedding matrix is programmed into one imc crossbar tile per shard
// (exactly the physical layout of a multi-tile accelerator), and scoring
// runs the tile's noisy MVM + cosine readout. Tiles are programmed
// lazily on first use of a shard range and cached, so programming noise
// is drawn once per tile like real device programming. Read noise comes
// from each tile's own seeded stream, drawn one probe row at a time in
// row order, so a probe's scores depend on the probes queried before it
// on the same engine: queries issued in order from one goroutine
// reproduce a seeded run however the probes are batched (core's
// evaluation readout issues one query in instance order), while
// concurrent queries interleave draws like concurrent reads of a
// physical array.
type CrossbarBackend struct {
	classRows
	k   float32
	cfg imc.Config

	mu    sync.Mutex
	tiles map[[2]int]*imc.SimilarityKernel
	// logitsPools holds per-shape pools of logits tensors, keyed by
	// [probes, shard width]: shard widths differ when the class count is
	// not divisible by the worker count, and batch sizes vary under a
	// coalescer, so a single pool would thrash between shapes. With one
	// pool per shape the steady state of ScoreShard allocates nothing.
	logitsPools map[[2]int]*sync.Pool
}

// NewCrossbarBackend wraps frozen class embeddings phi [C, d] with
// optional labels, temperature k, and the analog non-ideality config.
func NewCrossbarBackend(phi *tensor.Tensor, labels []string, k float32, cfg imc.Config) *CrossbarBackend {
	return newCrossbarBackend(denseRows(phi, labels, "NewCrossbarBackend"), k, cfg)
}

// NewItemCrossbarBackend is the crossbar backend over the packed
// prototypes of mem (labels from the memory): each tile is programmed
// from the ±1 expansion of its rows.
func NewItemCrossbarBackend(mem *hdc.ItemMemory, k float32, cfg imc.Config) *CrossbarBackend {
	return newCrossbarBackend(itemRows(mem), k, cfg)
}

func newCrossbarBackend(rows classRows, k float32, cfg imc.Config) *CrossbarBackend {
	if k <= 0 {
		panic("infer.CrossbarBackend: temperature must be positive")
	}
	return &CrossbarBackend{classRows: rows, k: k, cfg: cfg, tiles: make(map[[2]int]*imc.SimilarityKernel)}
}

func (b *CrossbarBackend) Name() string { return "imc" }

// Requires declares the dense-probe requirement (crossbar MVMs read
// real-valued probe rows), so packed-only batches fail at the engine
// boundary instead of deep inside the tile.
func (b *CrossbarBackend) Requires() Representation { return RepDense }

// tile returns (programming on first use) the crossbar tile for [lo, hi).
func (b *CrossbarBackend) tile(lo, hi int) *imc.SimilarityKernel {
	key := [2]int{lo, hi}
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.tiles[key]
	if !ok {
		t = imc.NewSimilarityKernelRows(b.rows(lo, hi), lo, b.k, b.cfg)
		b.tiles[key] = t
	}
	return t
}

// logitsPool returns the pool serving [n, width] logits tensors,
// creating it on first use of that shape.
func (b *CrossbarBackend) logitsPool(n, width int) *sync.Pool {
	key := [2]int{n, width}
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.logitsPools[key]
	if !ok {
		if b.logitsPools == nil {
			b.logitsPools = make(map[[2]int]*sync.Pool)
		}
		p = &sync.Pool{New: func() any { return tensor.New(n, width) }}
		b.logitsPools[key] = p
	}
	return p
}

// ScoreShard runs the shard's tile on the dense probes. The logits
// tensor comes from a per-shape pool, so the steady state allocates
// nothing.
func (b *CrossbarBackend) ScoreShard(batch *Batch, lo, hi int, out [][]float64) {
	if batch.Dense == nil {
		panic("infer.CrossbarBackend: batch has no dense probes")
	}
	n, width := batch.Dense.Dim(0), hi-lo
	pool := b.logitsPool(n, width)
	logits := pool.Get().(*tensor.Tensor)
	b.tile(lo, hi).LogitsInto(logits, batch.Dense)
	for p := 0; p < n; p++ {
		row := logits.Row(p)
		op := out[p]
		for j, v := range row {
			op[j] = float64(v)
		}
	}
	pool.Put(logits)
}
