package hdc

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Binary is a packed binary hypervector: 64 components per uint64 word.
// Component i lives at bit (i % 64) of word (i / 64). A set bit maps to
// bipolar −1 and a clear bit to +1, so XOR implements binding exactly as
// elementwise multiplication does on the bipolar side.
//
// This is the representation the paper's edge-deployment story targets:
// the attribute encoder becomes stationary binary weights whose binding
// and similarity reduce to XOR + popcount.
type Binary struct {
	words []uint64
	dim   int
}

// NewBinary returns an all-zero (all +1 in bipolar terms) packed vector.
func NewBinary(d int) *Binary {
	if d <= 0 {
		panic(fmt.Sprintf("hdc.NewBinary: non-positive dimension %d", d))
	}
	return &Binary{words: make([]uint64, (d+63)/64), dim: d}
}

// NewRandomBinary samples a uniformly random packed binary hypervector.
func NewRandomBinary(rng *rand.Rand, d int) *Binary {
	b := NewBinary(d)
	for i := range b.words {
		b.words[i] = rng.Uint64()
	}
	b.maskTail()
	return b
}

// maskTail clears the unused bits of the final word so popcounts and
// equality comparisons see only real components.
func (b *Binary) maskTail() {
	if rem := b.dim % 64; rem != 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Dim returns the dimensionality.
func (b *Binary) Dim() int { return b.dim }

// Bit returns component i as 0 or 1.
func (b *Binary) Bit(i int) int {
	if i < 0 || i >= b.dim {
		panic(fmt.Sprintf("hdc.Binary.Bit: index %d out of range [0,%d)", i, b.dim))
	}
	return int((b.words[i/64] >> uint(i%64)) & 1)
}

// SetBit sets component i to v (0 or 1).
func (b *Binary) SetBit(i, v int) {
	if i < 0 || i >= b.dim {
		panic(fmt.Sprintf("hdc.Binary.SetBit: index %d out of range [0,%d)", i, b.dim))
	}
	if v != 0 {
		b.words[i/64] |= 1 << uint(i%64)
	} else {
		b.words[i/64] &^= 1 << uint(i%64)
	}
}

// Clone returns a deep copy.
func (b *Binary) Clone() *Binary {
	c := NewBinary(b.dim)
	copy(c.words, b.words)
	return c
}

// Xor computes the binding b ⊙ o as bitwise XOR into a new vector.
func (b *Binary) Xor(o *Binary) *Binary {
	out := NewBinary(b.dim)
	b.XorInto(o, out)
	return out
}

// XorInto computes the binding b ⊙ o into dst without allocating. dst may
// alias b or o. This is the buffer-reuse kernel the batched inference
// engine (internal/infer) binds with on its hot path.
func (b *Binary) XorInto(o, dst *Binary) {
	checkDims("Binary.XorInto", b.dim, o.dim)
	checkDims("Binary.XorInto", b.dim, dst.dim)
	for i := range b.words {
		dst.words[i] = b.words[i] ^ o.words[i]
	}
}

// Hamming returns the number of differing components via popcount.
func (b *Binary) Hamming(o *Binary) int {
	checkDims("Binary.Hamming", b.dim, o.dim)
	var h int
	for i := range b.words {
		h += bits.OnesCount64(b.words[i] ^ o.words[i])
	}
	return h
}

// Permute rotates components by k positions, the ρ operation.
func (b *Binary) Permute(k int) *Binary {
	out := NewBinary(b.dim)
	b.PermuteInto(k, out)
	return out
}

// PermuteInto rotates components by k positions into dst without
// allocating: component i of b becomes component (i+k) mod d of dst.
// The rotation works at the word level — the packed vector is treated as
// a d-bit little-endian integer and rotated left by k via two multiword
// shifts, O(d/64) word operations instead of O(d) per-bit Bit/SetBit
// calls. dst must not alias b.
func (b *Binary) PermuteInto(k int, dst *Binary) {
	checkDims("Binary.PermuteInto", b.dim, dst.dim)
	if dst == b {
		panic("hdc.Binary.PermuteInto: dst must not alias the receiver")
	}
	d := b.dim
	k = ((k % d) + d) % d
	if k == 0 {
		copy(dst.words, b.words)
		return
	}
	w := len(b.words)
	// Left-shift part: bit i → i+k for i < d−k.
	sl, bs := k/64, uint(k%64)
	for j := w - 1; j >= 0; j-- {
		var v uint64
		if j-sl >= 0 {
			v = b.words[j-sl] << bs
			if bs > 0 && j-sl-1 >= 0 {
				v |= b.words[j-sl-1] >> (64 - bs)
			}
		}
		dst.words[j] = v
	}
	// Right-shift part: bit i → i−(d−k) for i ≥ d−k, i.e. the wrapped
	// high bits. The tail of the top input word is zero by invariant, so
	// a plain multiword right shift lands them at the bottom.
	r := d - k
	sr, br := r/64, uint(r%64)
	for j := 0; j+sr < w; j++ {
		v := b.words[j+sr] >> br
		if br > 0 && j+sr+1 < w {
			v |= b.words[j+sr+1] << (64 - br)
		}
		dst.words[j] |= v
	}
	dst.maskTail()
}

// ToBipolar expands the packed vector to its bipolar equivalent
// (bit 1 → −1, bit 0 → +1).
func (b *Binary) ToBipolar() Bipolar {
	out := make(Bipolar, b.dim)
	for j, w := range b.words {
		chunk := out[j*64 : min(j*64+64, b.dim)]
		for i := range chunk {
			chunk[i] = 1 - 2*int8(w>>i&1)
		}
	}
	return out
}

// FromBipolar packs a bipolar vector into binary form (−1 → bit 1).
// Zero components (possible in unthresholded intermediates) are rejected.
func FromBipolar(v Bipolar) *Binary {
	b := NewBinary(len(v))
	for j := range b.words {
		var w uint64
		for i, x := range v[j*64 : min(j*64+64, len(v))] {
			if x != 1 && x != -1 {
				panic(fmt.Sprintf("hdc.FromBipolar: component %d is %d, want ±1", j*64+i, x))
			}
			w |= uint64(uint8(x)>>7) << i // the sign bit: 1 for −1, 0 for +1
		}
		b.words[j] = w
	}
	return b
}

// Words exposes the packed word slab (component i at bit i%64 of word
// i/64, tail bits zero). Callers must treat it as read-only: it is the
// live backing store, shared so hot paths — the distributed serving
// protocol writes probe slabs straight onto the wire — need no copy.
func (b *Binary) Words() []uint64 { return b.words }

// BinaryFromWords wraps a word slab as a packed vector of dimension d,
// taking ownership of words (the inverse of Words, used to decode wire
// probes without copying). The slab must hold exactly ceil(d/64) words;
// tail bits beyond d are cleared here so Hamming kernels and equality
// see only real components.
func BinaryFromWords(d int, words []uint64) *Binary {
	if d <= 0 {
		panic(fmt.Sprintf("hdc.BinaryFromWords: non-positive dimension %d", d))
	}
	if want := (d + 63) / 64; len(words) != want {
		panic(fmt.Sprintf("hdc.BinaryFromWords: %d words for dimension %d, want %d", len(words), d, want))
	}
	b := &Binary{words: words, dim: d}
	b.maskTail()
	return b
}
