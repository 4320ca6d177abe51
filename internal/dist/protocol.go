package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/hdc"
	"repro/internal/infer"
)

// Wire protocol: length-prefixed little-endian binary frames over TCP.
// No JSON touches the hot path — probe slabs travel as raw float32 /
// uint64 words in exactly the layout the engine consumes, and a frame
// is written with a single net.Conn.Write so pipelined frames never
// interleave.
//
//	frame   := length:u32 payload
//	payload := op:u8 reqID:u32 body
//
// length counts the payload bytes only. reqID is a per-connection
// pipelining token: a client may have any number of frames in flight
// on one connection, and the server replies in completion order with
// the request's ID echoed, so one connection carries many overlapping
// batches.
//
//	hello    := version:u8
//	info     := version:u8 rep:u8 dim:u32 name:str8 epoch:u64
//	            nslabs:u16 { base:u32 classes:u32 { label:str16 }*classes }*nslabs
//	query    := epoch:u64 base:u32 k:u16 rep:u8 n:u16 dim:u32 slab
//	            slab(dense)  := f32[n*dim]
//	            slab(packed) := u64[n*ceil(dim/64)]
//	results  := n:u16 { kk:u16 { class:u32 score:f64bits }*kk }*n
//	prepare  := epoch:u64 label:str16 nwords:u32 { w:u64 }*nwords
//	commit   := epoch:u64
//	flipok   := ok:u8 committed:u64        (answers prepare and commit)
//	record   := epoch:u64
//	recordok := ok:u8 prepare
//	error    := msg:str16
//
// Classes in results frames are GLOBAL indices (the shard adds its
// slab base before replying), and scores travel as raw IEEE-754 bits,
// so the router's merge sees bit-for-bit the numbers the shard engine
// computed — the byte-identical-ranking contract survives the wire.
//
// Live enrollment: info advertises the shard's committed enrollment
// epoch, every query names the epoch it must be served at (a shard that
// grows serves exactly the class prefix epoch e contains; a shard asked
// past its committed epoch answers an error and the router fails over),
// and prepare/commit drive the two-phase epoch flip — prepare stages
// one WAL-durable enrollment, commit publishes it. A flipok with ok=0
// is a clean refusal carrying the replica's committed epoch: it lags the
// flip, or holds a different enrollment staged at the flip's epoch.
// record (version 3) reads the enrollment behind an epoch out of a
// replica's store, published or staged at published+1; a refusal
// carries the asked epoch, no label and no words.
const (
	// ProtocolVersion is negotiated in hello/info; a mismatch is a
	// handshake error, never a silent misparse.
	ProtocolVersion = 3
	// MaxFrame caps a frame payload; a peer announcing more is treated
	// as corrupt and the connection is dropped.
	MaxFrame = 64 << 20
)

// Frame ops.
const (
	opHello byte = iota + 1
	opInfo
	opQuery
	opResults
	opError
	opPrepare
	opPrepareOK
	opCommit
	opCommitOK
	opRecord
	opRecordOK
)

// frameHeaderSize is the fixed per-payload prefix: op + reqID.
const frameHeaderSize = 5

// beginFrame starts a frame in buf (reset to length 0): the 4-byte
// length placeholder, op, and reqID. Body bytes are appended by the
// caller; endFrame patches the length.
//
//hdc:hotpath
func beginFrame(buf []byte, op byte, reqID uint32) []byte {
	buf = append(buf[:0], 0, 0, 0, 0, op) //hdc:allow hotpathalloc amortized frame-buffer growth; the steady state reuses capacity
	buf = binary.LittleEndian.AppendUint32(buf, reqID)
	return buf
}

// endFrame patches the length prefix once the body is complete and
// returns the finished frame.
//
//hdc:hotpath
func endFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf
}

// readFrame reads one frame into scratch (grown as needed), returning
// the op, request ID, body view, and the (possibly regrown) scratch.
// The body view is valid until the next readFrame on the same scratch.
//
//hdc:hotpath
func readFrame(r *bufio.Reader, scratch []byte) (op byte, reqID uint32, body, scratchOut []byte, err error) {
	// Peek, not ReadFull into a local array: that array would escape
	// through the io.Reader call and cost an allocation per frame.
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, 0, nil, scratch, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	_, _ = r.Discard(4) // cannot fail: Peek just buffered these 4 bytes
	if n < frameHeaderSize || n > MaxFrame {
		return 0, 0, nil, scratch, errFrameSize(n)
	}
	if cap(scratch) >= int(n) {
		scratch = scratch[:n]
		_, err = io.ReadFull(r, scratch)
	} else {
		scratch, err = readGrowing(r, scratch[:0], int(n))
	}
	if err != nil {
		return 0, 0, nil, scratch, err
	}
	return scratch[0], binary.LittleEndian.Uint32(scratch[1:5]), scratch[frameHeaderSize:], scratch, nil
}

// readGrowing reads n bytes into buf, growing it only as bytes arrive
// (at most doubling per step), so a peer that announces a large frame
// and sends nothing costs a small allocation, not the announced length.
//
//hdc:coldpath amortized frame-scratch growth; the steady state reuses capacity
func readGrowing(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 64<<10)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// appendStr8 / appendStr16 append length-prefixed strings.
func appendStr8(buf []byte, s string) []byte {
	if len(s) > math.MaxUint8 {
		s = s[:math.MaxUint8]
	}
	buf = append(buf, byte(len(s)))
	return append(buf, s...)
}

func appendStr16(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// wireReader is a cursor over a frame body; decode helpers consume from
// the front and record the first error so call sites stay linear.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail() bool { return r.err != nil }

func (r *wireReader) need(n int) []byte {
	if r.err != nil {
		return nil
	}
	if uint(n) > uint(len(r.b)) { // also rejects a negative n
		r.err = errTruncated(n, len(r.b))
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *wireReader) u8() byte {
	if v := r.need(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *wireReader) u16() uint16 {
	if v := r.need(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

func (r *wireReader) u32() uint32 {
	if v := r.need(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if v := r.need(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (r *wireReader) str8() string {
	n := int(r.u8())
	if v := r.need(n); v != nil {
		return string(v)
	}
	return ""
}

func (r *wireReader) str16() string {
	n := int(r.u16())
	if v := r.need(n); v != nil {
		return string(v)
	}
	return ""
}

// --- hello / info ---------------------------------------------------------

// SlabInfo describes one class-range slab a shard server owns, as
// advertised in the info frame.
type SlabInfo struct {
	Base    int      // global index of the slab's first class
	Classes int      // slab width
	Labels  []string // per-class labels, local order
}

// ShardInfo is the decoded info frame: everything a router needs to
// validate a replica against the layout and resolve labels locally, so
// result frames never carry strings.
type ShardInfo struct {
	Version byte
	Rep     infer.Representation
	Dim     int
	Name    string
	// Epoch is the shard's committed enrollment epoch: its growing slab
	// (if any) holds the base range plus the first Epoch enrollments.
	// Frozen shards report 0.
	Epoch uint64
	Slabs []SlabInfo
}

func appendHello(buf []byte, reqID uint32) []byte {
	buf = beginFrame(buf, opHello, reqID)
	buf = append(buf, ProtocolVersion)
	return endFrame(buf)
}

func appendInfo(buf []byte, reqID uint32, info *ShardInfo) []byte {
	buf = beginFrame(buf, opInfo, reqID)
	buf = append(buf, ProtocolVersion, byte(info.Rep))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(info.Dim))
	buf = appendStr8(buf, info.Name)
	buf = binary.LittleEndian.AppendUint64(buf, info.Epoch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(info.Slabs)))
	for _, sl := range info.Slabs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(sl.Base))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(sl.Classes))
		for _, l := range sl.Labels {
			buf = appendStr16(buf, l)
		}
	}
	return endFrame(buf)
}

//hdc:coldpath handshake-only decode; query/result frames never reach it
func decodeInfo(body []byte) (*ShardInfo, error) {
	r := wireReader{b: body}
	info := &ShardInfo{Version: r.u8(), Rep: infer.Representation(r.u8())}
	info.Dim = int(r.u32())
	info.Name = r.str8()
	info.Epoch = r.u64()
	nslabs := int(r.u16())
	for i := 0; i < nslabs && !r.fail(); i++ {
		sl := SlabInfo{Base: int(r.u32()), Classes: int(r.u32())}
		// Every label takes at least its 2-byte length, so a count the
		// remaining body cannot hold is refused before the table is sized.
		if sl.Classes < 0 || sl.Classes > len(r.b)/2 {
			return nil, fmt.Errorf("%w: info slab %d declares %d classes in %d bytes", ErrProtocol, i, sl.Classes, len(r.b))
		}
		sl.Labels = make([]string, 0, sl.Classes)
		for c := 0; c < sl.Classes; c++ {
			sl.Labels = append(sl.Labels, r.str16())
		}
		info.Slabs = append(info.Slabs, sl)
	}
	if r.fail() {
		return nil, r.err
	}
	if info.Version != ProtocolVersion {
		return nil, fmt.Errorf("dist: protocol version mismatch: peer %d, want %d", info.Version, ProtocolVersion)
	}
	return info, nil
}

// --- query ----------------------------------------------------------------

// appendQuery encodes one probe batch addressed to the slab at base,
// to be served at exactly the named enrollment epoch. Dense probes are
// written as raw float32 rows; packed probes as raw uint64 words. The
// representation is the shard's declared one, so the server never
// converts.
//
//hdc:hotpath
func appendQuery(buf []byte, reqID uint32, epoch uint64, base int, k int, rep infer.Representation, batch *infer.Batch) ([]byte, error) {
	n := batch.Len()
	dim := batch.Dim()
	if n > math.MaxUint16 || k > math.MaxUint16 {
		return buf, errQueryTooLarge(n, k)
	}
	buf = beginFrame(buf, opQuery, reqID)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(base))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(k))
	buf = append(buf, byte(rep)) //hdc:allow hotpathalloc amortized frame-buffer growth; the steady state reuses capacity
	buf = binary.LittleEndian.AppendUint16(buf, uint16(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dim))
	switch rep {
	case infer.RepDense:
		x := batch.Dense
		if x == nil {
			return buf, errNoDense()
		}
		for p := 0; p < n; p++ {
			for _, v := range x.Row(p) {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
		}
	case infer.RepPacked:
		probes := batch.SignPacked()
		if probes == nil {
			return buf, errNoPacked()
		}
		for _, probe := range probes {
			for _, w := range probe.Words() {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		}
	default:
		return buf, errBadRep(byte(rep))
	}
	return endFrame(buf), nil
}

// wireQuery is a decoded query frame. The probe slab is decoded into
// the caller's scratch (flat / words grown, never shrunk), so a served
// connection's steady state allocates nothing.
type wireQuery struct {
	epoch uint64
	base  int
	k     int
	rep   infer.Representation
	n     int
	dim   int
	flat  []float32     // dense rows, n*dim (rep == RepDense)
	words []uint64      // packed words (rep == RepPacked)
	pack  []*hdc.Binary // views into words, one per probe
}

// decodeQuery parses a query frame body into q, reusing q's slab
// buffers.
//
//hdc:hotpath
func decodeQuery(body []byte, q *wireQuery) error {
	r := wireReader{b: body}
	q.epoch = r.u64()
	q.base = int(r.u32())
	q.k = int(r.u16())
	q.rep = infer.Representation(r.u8())
	q.n = int(r.u16())
	q.dim = int(r.u32())
	if r.fail() {
		return r.err
	}
	if q.dim <= 0 {
		return errBadDim(q.dim)
	}
	switch q.rep {
	case infer.RepDense:
		want := q.n * q.dim
		raw := r.need(4 * want)
		if r.fail() {
			return r.err
		}
		if cap(q.flat) < want {
			q.flat = make([]float32, want) //hdc:allow hotpathalloc amortized probe-slab growth; the steady state reuses capacity
		}
		q.flat = q.flat[:want]
		for i := range q.flat {
			q.flat[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	case infer.RepPacked:
		wpv := (q.dim + 63) / 64
		want := q.n * wpv
		raw := r.need(8 * want)
		if r.fail() {
			return r.err
		}
		if cap(q.words) < want {
			q.words = make([]uint64, want) //hdc:allow hotpathalloc amortized probe-slab growth; the steady state reuses capacity
		}
		q.words = q.words[:want]
		for i := range q.words {
			q.words[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		if cap(q.pack) < q.n {
			q.pack = make([]*hdc.Binary, q.n) //hdc:allow hotpathalloc amortized probe-slab growth; the steady state reuses capacity
		}
		q.pack = q.pack[:q.n]
		for p := range q.pack {
			q.pack[p] = hdc.BinaryFromWords(q.dim, q.words[p*wpv:(p+1)*wpv])
		}
	default:
		return errBadRep(byte(q.rep))
	}
	if len(r.b) != 0 {
		return errTrailing(len(r.b))
	}
	return nil
}

// --- results --------------------------------------------------------------

// appendResults encodes per-probe candidate lists, mapping local class
// indices to global ones by adding base. Scores travel as raw bits.
//
//hdc:hotpath
func appendResults(buf []byte, reqID uint32, base int, results []infer.Result) []byte {
	buf = beginFrame(buf, opResults, reqID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(results)))
	for _, res := range results {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(res.TopK)))
		for _, h := range res.TopK {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(base+h.Class))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Score))
		}
	}
	return endFrame(buf)
}

// shardReply is one shard's decoded candidate lists: hits at stride
// kStride per probe (counts[p] valid), classes global, no labels — the
// router resolves those at merge time from its handshake table.
type shardReply struct {
	n       int
	kStride int
	counts  []int
	hits    []infer.Hit
}

// decodeResults parses a results frame body into rep, whose kStride
// must be pre-set to the k the query asked for; buffers are reused.
//
//hdc:hotpath
func decodeResults(body []byte, rep *shardReply) error {
	r := wireReader{b: body}
	rep.n = int(r.u16())
	if r.fail() {
		return r.err
	}
	k := rep.kStride
	if cap(rep.counts) < rep.n {
		rep.counts = make([]int, rep.n) //hdc:allow hotpathalloc amortized reply-buffer growth; the steady state reuses capacity
	}
	rep.counts = rep.counts[:rep.n]
	if cap(rep.hits) < rep.n*k {
		rep.hits = make([]infer.Hit, rep.n*k) //hdc:allow hotpathalloc amortized reply-buffer growth; the steady state reuses capacity
	}
	rep.hits = rep.hits[:rep.n*k]
	for p := 0; p < rep.n; p++ {
		kk := int(r.u16())
		if kk > k {
			return errReplyOverflow(kk, k)
		}
		rep.counts[p] = kk
		row := rep.hits[p*k : p*k+kk]
		for i := range row {
			class := r.u32()
			score := r.u64()
			row[i] = infer.Hit{Class: int(class), Score: math.Float64frombits(score)}
		}
	}
	if r.fail() {
		return r.err
	}
	if len(r.b) != 0 {
		return errTrailing(len(r.b))
	}
	return nil
}

// --- prepare / commit / record --------------------------------------------

// EnrollRecord is one enrollment as it travels the wire and as a
// replica's store holds it: the epoch it creates, the class label, and
// the packed prototype words (the durable unit — dense rows and norms
// are rederived from the words everywhere, which is what keeps
// caught-up and forwarded enrollments bit-identical).
type EnrollRecord struct {
	Epoch uint64
	Label string
	Words []uint64
}

// flipReply is a decoded enrollment control reply. OK=false is a clean
// refusal. Committed is the replica's committed epoch (prepare and
// commit replies); Record is the enrollment read (record replies with
// OK set).
type flipReply struct {
	OK        bool
	Committed uint64
	Record    *EnrollRecord
}

func appendPrepare(buf []byte, reqID uint32, rec *EnrollRecord) []byte {
	buf = beginFrame(buf, opPrepare, reqID)
	return endFrame(appendRecordBody(buf, rec))
}

// appendRecordBody appends the prepare body: the one encoding of an
// EnrollRecord, shared by prepare and recordok frames.
func appendRecordBody(buf []byte, rec *EnrollRecord) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, rec.Epoch)
	buf = appendStr16(buf, rec.Label)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Words)))
	for _, w := range rec.Words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

//hdc:coldpath enrollment decode runs once per flip, off the query hot path
func decodePrepare(body []byte) (*EnrollRecord, error) {
	r := wireReader{b: body}
	rec := &EnrollRecord{Epoch: r.u64(), Label: r.str16()}
	nwords := int(r.u32())
	// Check the words arrived before allocating them: a short frame
	// must not cost what it declares.
	raw := r.need(8 * nwords)
	if r.fail() {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, errTrailing(len(r.b))
	}
	rec.Words = make([]uint64, nwords)
	for i := range rec.Words {
		rec.Words[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return rec, nil
}

// appendEpochFrame encodes a frame whose whole body is one epoch: commit
// and record.
func appendEpochFrame(buf []byte, op byte, reqID uint32, epoch uint64) []byte {
	buf = beginFrame(buf, op, reqID)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return endFrame(buf)
}

// decodeEpoch parses a commit or record body.
//
//hdc:coldpath enrollment decode runs once per flip, off the query hot path
func decodeEpoch(body []byte) (uint64, error) {
	r := wireReader{b: body}
	epoch := r.u64()
	if r.fail() {
		return 0, r.err
	}
	if len(r.b) != 0 {
		return 0, errTrailing(len(r.b))
	}
	return epoch, nil
}

func appendFlipOK(buf []byte, op byte, reqID uint32, ok bool, committed uint64) []byte {
	buf = beginFrame(buf, op, reqID)
	buf = append(buf, okByte(ok))
	return endFrame(binary.LittleEndian.AppendUint64(buf, committed))
}

//hdc:coldpath enrollment decode runs once per flip, off the query hot path
func decodeFlipOK(body []byte, rep *flipReply) error {
	r := wireReader{b: body}
	rep.OK = r.u8() != 0
	rep.Committed = r.u64()
	if r.fail() {
		return r.err
	}
	if len(r.b) != 0 {
		return errTrailing(len(r.b))
	}
	return nil
}

// appendRecordOK answers a record request. A refusal carries the asked
// epoch with an empty label and no words.
func appendRecordOK(buf []byte, reqID uint32, ok bool, rec *EnrollRecord) []byte {
	buf = beginFrame(buf, opRecordOK, reqID)
	buf = append(buf, okByte(ok))
	return endFrame(appendRecordBody(buf, rec))
}

// decodeRecordOK parses a recordok body into rep. The ok byte must be 0
// or 1, so every body that decodes re-encodes to the same bytes.
//
//hdc:coldpath enrollment decode runs once per flip, off the query hot path
func decodeRecordOK(body []byte, rep *flipReply) (err error) {
	if len(body) == 0 || body[0] > 1 {
		return fmt.Errorf("%w: recordok without a 0/1 flag", ErrProtocol)
	}
	rep.OK = body[0] == 1
	rep.Record, err = decodePrepare(body[1:])
	return err
}

func okByte(ok bool) byte {
	if ok {
		return 1
	}
	return 0
}

// --- error ----------------------------------------------------------------

//hdc:coldpath error frames answer only rejected requests
func appendError(buf []byte, reqID uint32, msg string) []byte {
	buf = beginFrame(buf, opError, reqID)
	buf = appendStr16(buf, msg)
	return endFrame(buf)
}

//hdc:coldpath error frames answer only rejected requests
func decodeError(body []byte) error {
	r := wireReader{b: body}
	msg := r.str16()
	if r.fail() {
		return r.err
	}
	return fmt.Errorf("%w: %s", ErrRemote, msg)
}

// Cold error constructors, kept out of the framing hot path.

//hdc:coldpath error construction for rejected frames
func errFrameSize(n uint32) error {
	return fmt.Errorf("%w: frame payload of %d bytes", ErrProtocol, n)
}

//hdc:coldpath error construction for rejected frames
func errTruncated(want, have int) error {
	return fmt.Errorf("%w: truncated frame: need %d bytes, have %d", ErrProtocol, want, have)
}

//hdc:coldpath error construction for rejected frames
func errTrailing(n int) error {
	return fmt.Errorf("%w: %d trailing bytes after frame body", ErrProtocol, n)
}

//hdc:coldpath error construction for rejected frames
func errBadDim(dim int) error {
	return fmt.Errorf("%w: probe dimension %d", ErrProtocol, dim)
}

//hdc:coldpath error construction for rejected frames
func errBadRep(rep byte) error {
	return fmt.Errorf("%w: unknown probe representation %d", ErrProtocol, rep)
}

//hdc:coldpath error construction for rejected queries
func errQueryTooLarge(n, k int) error {
	return fmt.Errorf("%w: batch of %d probes at k=%d exceeds the wire limits", ErrProtocol, n, k)
}

//hdc:coldpath error construction for rejected queries
func errNoDense() error {
	return fmt.Errorf("%w: shard consumes dense probes, batch has none", ErrProtocol)
}

//hdc:coldpath error construction for rejected queries
func errNoPacked() error {
	return fmt.Errorf("%w: shard consumes packed probes, batch has none", ErrProtocol)
}

//hdc:coldpath error construction for rejected replies
func errReplyOverflow(kk, k int) error {
	return fmt.Errorf("%w: shard returned %d candidates for k=%d", ErrProtocol, kk, k)
}
