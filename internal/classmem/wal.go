// Enrollment durability: a length-prefixed, CRC-framed write-ahead log
// fsync'd before every epoch publish, plus a periodic compacted
// snapshot so the WAL stays short-lived. The on-disk unit is the
// enrollment record (epoch, label, packed prototype words) — the same
// words the in-memory store keeps as its only class representation, so
// a replayed memory is bit-identical to the pre-crash one by
// construction. Float and crossbar tiles are derived from the words on
// first use, never persisted.
//
// WAL frame:    u32 payloadLen | u32 crc32(payload) | payload
// enroll body:  u8 kind=1 | u64 epoch | u16 labelLen | label | u32 nwords | nwords×u64
// commit body:  u8 kind=2 | u64 epoch
//
// All integers little-endian. A prepare appends (and fsyncs) an enroll
// record; the publish appends a commit record. Replay stages an enroll
// without its commit (the two-phase flip's prepared state) and applies
// enroll+commit pairs in order. Any torn tail — short frame, CRC
// mismatch, or implausible length — is truncated to the last complete
// record: exactly the write that was in flight when the process died.
//
// Snapshot file (classmem.snap, written atomically via rename):
// "HDCMSNP1" | u32 dim | u32 base | u64 seed | u64 epoch |
// epoch × (u16 labelLen | label | wpv×u64) | u32 crc32(all prior bytes)

package classmem

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	walName  = "classmem.wal"
	snapName = "classmem.snap"

	walKindEnroll = 1
	walKindCommit = 2

	// maxWALRecord bounds a frame's payload length during replay so a
	// corrupt length prefix cannot trigger a giant allocation; sized
	// far above any real record (label ≤ 64KiB, dim ≤ 1M bits).
	maxWALRecord = 1 << 20
)

var snapMagic = [8]byte{'H', 'D', 'C', 'M', 'S', 'N', 'P', '1'}

// enrollRecord builds the WAL payload staging `epoch`.
func enrollRecord(epoch uint64, label string, words []uint64) []byte {
	p := make([]byte, 0, 1+8+2+len(label)+4+8*len(words))
	p = append(p, walKindEnroll)
	p = binary.LittleEndian.AppendUint64(p, epoch)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(label)))
	p = append(p, label...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(words)))
	for _, w := range words {
		p = binary.LittleEndian.AppendUint64(p, w)
	}
	return p
}

// commitRecord builds the WAL payload publishing `epoch`.
func commitRecord(epoch uint64) []byte {
	p := make([]byte, 0, 1+8)
	p = append(p, walKindCommit)
	return binary.LittleEndian.AppendUint64(p, epoch)
}

// walFile is the open append handle. Writers hold Versioned.mu.
type walFile struct {
	f    *os.File
	size int64
}

// append frames and writes the payloads in one contiguous write, then
// fsyncs once — the durability point every publish orders after.
func (w *walFile) append(payloads ...[]byte) error {
	var buf []byte
	for _, p := range payloads {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(p))
		buf = append(buf, p...)
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("classmem: wal write: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("classmem: wal fsync: %w", err)
	}
	w.size += int64(len(buf))
	return nil
}

// reset truncates the WAL after a snapshot has made its records
// redundant. A crash between the snapshot rename and this truncate is
// safe: replay skips records at or below the snapshot's epoch.
func (w *walFile) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = 0
	return nil
}

func (w *walFile) close() error { return w.f.Close() }

// OpenVersioned opens (or creates) a durable versioned store in dir:
// the frozen Build(classes, dim, seed) base, plus the compacted
// snapshot, plus the WAL tail, replayed in order — restarting into
// exactly the pre-crash published epoch, with any prepared-but-
// uncommitted enrollment restored to its staged state. snapshotEvery
// compacts the WAL into the snapshot after that many commits (0 →
// never). An empty dir opens the in-memory store of NewVersioned:
// enrollments publish without a WAL and are lost on restart.
func OpenVersioned(dir string, classes, dim int, seed int64, snapshotEvery int) (*Versioned, error) {
	if dir == "" {
		return NewVersioned(classes, dim, seed), nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("classmem: wal dir: %w", err)
	}
	v := &Versioned{
		dim:           dim,
		wpv:           (dim + 63) / 64,
		seed:          seed,
		base:          classes,
		snapshotEvery: snapshotEvery,
	}
	v.seedBase(classes, dim, seed)
	if err := v.loadSnapshot(filepath.Join(dir, snapName)); err != nil {
		return nil, err
	}
	v.sinceSnap = 0
	if err := v.replayWAL(filepath.Join(dir, walName)); err != nil {
		return nil, err
	}
	return v, nil
}

// loadSnapshot applies the compacted snapshot, if present.
func (v *Versioned) loadSnapshot(path string) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("classmem: snapshot: %w", err)
	}
	if len(raw) < 8+4+4+8+8+4 {
		return fmt.Errorf("classmem: snapshot %s: truncated header", path)
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return fmt.Errorf("classmem: snapshot %s: checksum mismatch", path)
	}
	if [8]byte(body[:8]) != snapMagic {
		return fmt.Errorf("classmem: snapshot %s: bad magic", path)
	}
	r := body[8:]
	dim := binary.LittleEndian.Uint32(r)
	base := binary.LittleEndian.Uint32(r[4:])
	seed := int64(binary.LittleEndian.Uint64(r[8:]))
	epoch := binary.LittleEndian.Uint64(r[16:])
	if int(dim) != v.dim || int(base) != v.base || seed != v.seed {
		return fmt.Errorf("classmem: snapshot %s: built for (classes=%d dim=%d seed=%d), store is (classes=%d dim=%d seed=%d)",
			path, base, dim, seed, v.base, v.dim, v.seed)
	}
	r = r[24:]
	v.mu.Lock()
	defer v.mu.Unlock()
	for e := uint64(0); e < epoch; e++ {
		if len(r) < 2 {
			return fmt.Errorf("classmem: snapshot %s: truncated at enrollment %d", path, e+1)
		}
		ll := int(binary.LittleEndian.Uint16(r))
		r = r[2:]
		if len(r) < ll+8*v.wpv {
			return fmt.Errorf("classmem: snapshot %s: truncated at enrollment %d", path, e+1)
		}
		label := string(r[:ll])
		r = r[ll:]
		words := make([]uint64, v.wpv)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(r[8*i:])
		}
		r = r[8*v.wpv:]
		v.applyLocked(label, words)
	}
	if len(r) != 0 {
		return fmt.Errorf("classmem: snapshot %s: %d trailing bytes", path, len(r))
	}
	return nil
}

// replayWAL opens the WAL for appending, applying every complete
// record and truncating any torn tail.
func (v *Versioned) replayWAL(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("classmem: wal: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return fmt.Errorf("classmem: wal: %w", err)
	}
	v.mu.Lock()
	off := 0
	for {
		rec, n := nextWALRecord(raw[off:])
		if rec == nil {
			break
		}
		if err := v.replayRecordLocked(rec); err != nil {
			v.mu.Unlock()
			f.Close()
			return fmt.Errorf("classmem: wal %s at offset %d: %w", path, off, err)
		}
		off += n
	}
	v.mu.Unlock()
	if off != len(raw) {
		// Torn tail: the record in flight at crash time. Truncate to the
		// last complete record so appends resume from a clean frame.
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return fmt.Errorf("classmem: wal truncate: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("classmem: wal: %w", err)
	}
	v.mu.Lock()
	v.wal = &walFile{f: f, size: int64(off)}
	v.mu.Unlock()
	v.walBytes.Store(int64(off))
	return nil
}

// nextWALRecord parses one frame, returning (payload, frameLen) or
// (nil, 0) when the buffer holds no complete valid frame — the torn-
// tail signal.
func nextWALRecord(buf []byte) ([]byte, int) {
	if len(buf) < 8 {
		return nil, 0
	}
	n := int(binary.LittleEndian.Uint32(buf))
	sum := binary.LittleEndian.Uint32(buf[4:])
	if n == 0 || n > maxWALRecord || len(buf) < 8+n {
		return nil, 0
	}
	p := buf[8 : 8+n]
	if crc32.ChecksumIEEE(p) != sum {
		return nil, 0
	}
	return p, 8 + n
}

// replayRecordLocked applies one WAL payload, reproducing the exact
// prepare/commit state machine the live path runs.
func (v *Versioned) replayRecordLocked(p []byte) error {
	if len(p) < 9 {
		return fmt.Errorf("record too short (%d bytes)", len(p))
	}
	kind, epoch := p[0], binary.LittleEndian.Uint64(p[1:])
	published := uint64(v.slab.rows - v.base)
	switch kind {
	case walKindEnroll:
		if epoch <= published {
			return nil // compacted into the snapshot already
		}
		if epoch != published+1 {
			return fmt.Errorf("%w: enroll epoch %d with %d published", ErrEpochGap, epoch, published)
		}
		r := p[9:]
		if len(r) < 2 {
			return fmt.Errorf("enroll record truncated")
		}
		ll := int(binary.LittleEndian.Uint16(r))
		r = r[2:]
		if len(r) < ll+4 {
			return fmt.Errorf("enroll record truncated")
		}
		label := string(r[:ll])
		r = r[ll:]
		nw := int(binary.LittleEndian.Uint32(r))
		r = r[4:]
		if nw != v.wpv || len(r) != 8*nw {
			return fmt.Errorf("enroll record: %d words, want %d", nw, v.wpv)
		}
		words := make([]uint64, nw)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(r[8*i:])
		}
		v.pending = &pendingEnroll{epoch: epoch, label: label, words: words}
		return nil
	case walKindCommit:
		if epoch <= published {
			return nil
		}
		if v.pending == nil || v.pending.epoch != epoch {
			return fmt.Errorf("%w: commit epoch %d", ErrNotPrepared, epoch)
		}
		v.applyLocked(v.pending.label, v.pending.words)
		v.pending = nil
		return nil
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
}

// maybeCompactLocked writes a compacted snapshot and truncates the WAL
// once snapshotEvery commits have accumulated since the last one.
func (v *Versioned) maybeCompactLocked() error {
	if v.wal == nil || v.snapshotEvery <= 0 || v.sinceSnap < v.snapshotEvery {
		return nil
	}
	return v.compactLocked()
}

// Compact forces a snapshot + WAL truncation now (no-op for in-memory
// stores). Exposed for shutdown hooks and tests; the periodic path is
// snapshotEvery.
func (v *Versioned) Compact() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.wal == nil {
		return nil
	}
	return v.compactLocked()
}

func (v *Versioned) compactLocked() error {
	dir := filepath.Dir(v.wal.f.Name())
	epoch := uint64(v.slab.rows - v.base)
	body := make([]byte, 0, 8+24+int(epoch)*(2+16+8*v.wpv))
	body = append(body, snapMagic[:]...)
	body = binary.LittleEndian.AppendUint32(body, uint32(v.dim))
	body = binary.LittleEndian.AppendUint32(body, uint32(v.base))
	body = binary.LittleEndian.AppendUint64(body, uint64(v.seed))
	body = binary.LittleEndian.AppendUint64(body, epoch)
	for row := v.base; row < v.slab.rows; row++ {
		label := v.slab.labels[row]
		body = binary.LittleEndian.AppendUint16(body, uint16(len(label)))
		body = append(body, label...)
		for _, w := range v.slab.words[row*v.wpv : (row+1)*v.wpv] {
			body = binary.LittleEndian.AppendUint64(body, w)
		}
	}
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))

	tmp := filepath.Join(dir, snapName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("classmem: snapshot: %w", err)
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return fmt.Errorf("classmem: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("classmem: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("classmem: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName)); err != nil {
		return fmt.Errorf("classmem: snapshot rename: %w", err)
	}
	syncDir(dir)
	if err := v.wal.reset(); err != nil {
		return fmt.Errorf("classmem: wal reset: %w", err)
	}
	v.walBytes.Store(0)
	v.sinceSnap = 0
	return nil
}

// syncDir best-effort fsyncs a directory so the snapshot rename is
// durable; filesystems that reject directory fsync are tolerated.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
