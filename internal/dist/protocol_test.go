package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/tensor"
)

// readOne parses a single encoded frame back through the real read path.
func readOne(t *testing.T, frame []byte) (op byte, reqID uint32, body []byte) {
	t.Helper()
	op, reqID, body, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return op, reqID, body
}

func TestQueryFrameRoundTripDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, d = 3, 17
	x := tensor.New(n, d)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	frame, err := appendQuery(nil, 42, 0, 100, 5, infer.RepDense, infer.DenseBatch(x))
	if err != nil {
		t.Fatalf("appendQuery: %v", err)
	}
	op, reqID, body := readOne(t, frame)
	if op != opQuery || reqID != 42 {
		t.Fatalf("op=%d reqID=%d, want opQuery reqID=42", op, reqID)
	}
	var q wireQuery
	if err := decodeQuery(body, &q); err != nil {
		t.Fatalf("decodeQuery: %v", err)
	}
	if q.base != 100 || q.k != 5 || q.rep != infer.RepDense || q.n != n || q.dim != d {
		t.Fatalf("header mismatch: %+v", q)
	}
	for i, v := range x.Data {
		if q.flat[i] != v {
			t.Fatalf("probe value %d: got %v want %v (must be bit-exact)", i, q.flat[i], v)
		}
	}
}

func TestQueryFrameRoundTripPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, d = 4, 130 // straddles a word boundary
	probes := make([]*hdc.Binary, n)
	for i := range probes {
		probes[i] = hdc.NewRandomBinary(rng, d)
	}
	frame, err := appendQuery(nil, 7, 0, 0, 3, infer.RepPacked, infer.PackedBatch(probes))
	if err != nil {
		t.Fatalf("appendQuery: %v", err)
	}
	_, _, body := readOne(t, frame)
	var q wireQuery
	if err := decodeQuery(body, &q); err != nil {
		t.Fatalf("decodeQuery: %v", err)
	}
	if q.n != n || q.dim != d || len(q.pack) != n {
		t.Fatalf("header mismatch: %+v", q)
	}
	for p, probe := range probes {
		want, got := probe.Words(), q.pack[p].Words()
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("probe %d word %d: got %x want %x", p, w, got[w], want[w])
			}
		}
	}
}

func TestResultsFrameRoundTripPreservesScoreBits(t *testing.T) {
	// Scores chosen to be ugly under any text round trip: bit-exact
	// survival over the wire is what the parity contract rides on.
	results := []infer.Result{
		{TopK: []infer.Hit{{Class: 0, Score: 0.1 + 0.2}, {Class: 3, Score: 0.1 + 0.2}}},
		{TopK: []infer.Hit{{Class: 1, Score: math.Nextafter(1, 2)}}},
		{TopK: nil},
	}
	const base = 1000
	frame := appendResults(nil, 9, base, results)
	op, reqID, body := readOne(t, frame)
	if op != opResults || reqID != 9 {
		t.Fatalf("op=%d reqID=%d", op, reqID)
	}
	rep := shardReply{kStride: 2}
	if err := decodeResults(body, &rep); err != nil {
		t.Fatalf("decodeResults: %v", err)
	}
	if rep.n != len(results) {
		t.Fatalf("n=%d want %d", rep.n, len(results))
	}
	for p, res := range results {
		if rep.counts[p] != len(res.TopK) {
			t.Fatalf("probe %d count=%d want %d", p, rep.counts[p], len(res.TopK))
		}
		for i, h := range res.TopK {
			got := rep.hits[p*rep.kStride+i]
			if got.Class != base+h.Class {
				t.Fatalf("probe %d hit %d class=%d want %d (global)", p, i, got.Class, base+h.Class)
			}
			if math.Float64bits(got.Score) != math.Float64bits(h.Score) {
				t.Fatalf("probe %d hit %d score bits %x want %x", p, i,
					math.Float64bits(got.Score), math.Float64bits(h.Score))
			}
		}
	}
}

func TestInfoFrameRoundTrip(t *testing.T) {
	in := ShardInfo{
		Version: ProtocolVersion,
		Rep:     infer.RepPacked,
		Dim:     1536,
		Name:    "hamming-packed",
		Slabs: []SlabInfo{
			{Base: 0, Classes: 2, Labels: []string{"cat", "dog"}},
			{Base: 500, Classes: 1, Labels: []string{"newt"}},
		},
	}
	_, _, body := readOne(t, appendInfo(nil, 1, &in))
	out, err := decodeInfo(body)
	if err != nil {
		t.Fatalf("decodeInfo: %v", err)
	}
	if out.Rep != in.Rep || out.Dim != in.Dim || out.Name != in.Name || len(out.Slabs) != 2 {
		t.Fatalf("info mismatch: %+v", out)
	}
	for i, sl := range in.Slabs {
		got := out.Slabs[i]
		if got.Base != sl.Base || got.Classes != sl.Classes {
			t.Fatalf("slab %d geometry mismatch: %+v", i, got)
		}
		for c := range sl.Labels {
			if got.Labels[c] != sl.Labels[c] {
				t.Fatalf("slab %d label %d: %q want %q", i, c, got.Labels[c], sl.Labels[c])
			}
		}
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	_, _, body := readOne(t, appendError(nil, 3, "no slab at base 7"))
	err := decodeError(body)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("decoded error %v is not ErrRemote", err)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	_, _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])), nil)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized frame: err=%v, want ErrProtocol", err)
	}
}

// A header that announces MaxFrame and then ends must cost the reader
// what arrived, not the announced 64 MB.
func TestReadFrameAnnouncedLengthAllocatesOnArrival(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame)
	br := bufio.NewReader(bytes.NewReader(append(hdr[:], 1, 2, 3, 4, 5, 6, 7)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, _, err := readFrame(br, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame read without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("truncated MaxFrame header allocated %d B, want < 1 MB", got)
	}

	// A frame longer than the first growth step still arrives intact.
	body := make([]byte, 300<<10)
	for i := range body {
		body[i] = byte(i * 7)
	}
	frame := endFrame(append(beginFrame(nil, opError, 9), body...))
	op, reqID, got, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil || op != opError || reqID != 9 || !bytes.Equal(got, body) {
		t.Fatalf("large frame: op %d reqID %d, %d body bytes, err %v", op, reqID, len(got), err)
	}
}

// Reads into scratch that already fits the frame allocate nothing.
func TestReadFrameSteadyStateZeroAlloc(t *testing.T) {
	frame := appendError(nil, 3, "no slab at base 7")
	stream := bytes.NewReader(nil)
	br := bufio.NewReader(stream)
	scratch := make([]byte, 0, len(frame))
	allocs := testing.AllocsPerRun(100, func() {
		stream.Reset(frame)
		br.Reset(stream)
		var err error
		if _, _, _, scratch, err = readFrame(br, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state readFrame: %v allocs/op, want 0", allocs)
	}
}

func TestDecodeQueryRejectsTruncatedSlab(t *testing.T) {
	x := tensor.New(2, 8)
	frame, err := appendQuery(nil, 1, 0, 0, 1, infer.RepDense, infer.DenseBatch(x))
	if err != nil {
		t.Fatal(err)
	}
	_, _, body := readOne(t, frame)
	var q wireQuery
	if err := decodeQuery(body[:len(body)-4], &q); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated slab: err=%v, want ErrProtocol", err)
	}
}

func TestDecodeResultsRejectsOverflowingCandidateList(t *testing.T) {
	results := []infer.Result{{TopK: []infer.Hit{{Class: 0}, {Class: 1}, {Class: 2}}}}
	_, _, body := readOne(t, appendResults(nil, 1, 0, results))
	rep := shardReply{kStride: 2} // shard promised at most 2 per probe
	if err := decodeResults(body, &rep); !errors.Is(err, ErrProtocol) {
		t.Fatalf("overflowing reply: err=%v, want ErrProtocol", err)
	}
}

// enrollRecordFixture is a record whose words straddle a sign-word
// boundary and whose label is not ASCII.
func enrollRecordFixture() *EnrollRecord {
	return &EnrollRecord{Epoch: 7, Label: "nachtreiher-ä", Words: []uint64{0, math.MaxUint64, 0x0123456789abcdef}}
}

func TestEnrollFramesRoundTrip(t *testing.T) {
	rec := enrollRecordFixture()
	op, reqID, body := readOne(t, appendPrepare(nil, 5, rec))
	if op != opPrepare || reqID != 5 {
		t.Fatalf("prepare: op=%d reqID=%d", op, reqID)
	}
	got, err := decodePrepare(body)
	if err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("prepare round trip: %+v err %v, want %+v", got, err, rec)
	}

	for _, op := range []byte{opCommit, opRecord} {
		gotOp, _, body := readOne(t, appendEpochFrame(nil, op, 6, 1<<40+3))
		if epoch, err := decodeEpoch(body); gotOp != op || err != nil || epoch != 1<<40+3 {
			t.Fatalf("op %d: decoded op %d epoch %d err %v", op, gotOp, epoch, err)
		}
	}

	for _, ok := range []bool{true, false} {
		var rep flipReply
		_, _, body := readOne(t, appendFlipOK(nil, opPrepareOK, 8, ok, 41))
		if err := decodeFlipOK(body, &rep); err != nil || rep.OK != ok || rep.Committed != 41 {
			t.Fatalf("flipok(%v): %+v err %v", ok, rep, err)
		}
	}

	var rep flipReply
	op, _, body = readOne(t, appendRecordOK(nil, 9, true, rec))
	if err := decodeRecordOK(body, &rep); op != opRecordOK || err != nil || !rep.OK || !reflect.DeepEqual(rep.Record, rec) {
		t.Fatalf("recordok: op %d %+v err %v, want %+v", op, rep, err, rec)
	}
	refusal := &EnrollRecord{Epoch: 3, Words: []uint64{}}
	_, _, body = readOne(t, appendRecordOK(nil, 9, false, refusal))
	if err := decodeRecordOK(body, &rep); err != nil || rep.OK || !reflect.DeepEqual(rep.Record, refusal) {
		t.Fatalf("recordok refusal: %+v err %v", rep, err)
	}
}

// Every proper prefix of an enrollment body is a protocol error, and so
// is a byte past its end.
func TestEnrollFramesRejectTruncation(t *testing.T) {
	rec := enrollRecordFixture()
	decoders := []struct {
		name   string
		frame  []byte
		decode func([]byte) error
	}{
		{"prepare", appendPrepare(nil, 1, rec), func(b []byte) error { _, err := decodePrepare(b); return err }},
		{"commit", appendEpochFrame(nil, opCommit, 1, 9), func(b []byte) error { _, err := decodeEpoch(b); return err }},
		{"record", appendEpochFrame(nil, opRecord, 1, 9), func(b []byte) error { _, err := decodeEpoch(b); return err }},
		{"flipok", appendFlipOK(nil, opCommitOK, 1, true, 9), func(b []byte) error { return decodeFlipOK(b, &flipReply{}) }},
		{"recordok", appendRecordOK(nil, 1, true, rec), func(b []byte) error { return decodeRecordOK(b, &flipReply{}) }},
	}
	for _, d := range decoders {
		_, _, body := readOne(t, d.frame)
		for n := 0; n < len(body); n++ {
			if err := d.decode(body[:n]); !errors.Is(err, ErrProtocol) {
				t.Fatalf("%s truncated to %d of %d bytes: err=%v, want ErrProtocol", d.name, n, len(body), err)
			}
		}
		if err := d.decode(append(body[:len(body):len(body)], 0)); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s with a trailing byte: err=%v, want ErrProtocol", d.name, err)
		}
	}
	_, _, body := readOne(t, appendRecordOK(nil, 1, true, rec))
	body[0] = 2
	if err := decodeRecordOK(body, &flipReply{}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("recordok flag 2: err=%v, want ErrProtocol", err)
	}
}

// FuzzDecode feeds one body to every frame decoder. None may panic or
// allocate on a count the body cannot back, and a prepare or recordok
// body that decodes must re-encode to exactly its bytes — one record,
// one encoding. The seed corpus (testdata/fuzz/FuzzDecode) holds the
// bodies of the round-trip tests' frames.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		_, _ = decodeInfo(body)
		var q wireQuery
		_ = decodeQuery(body, &q)
		_ = decodeResults(body, &shardReply{kStride: 4})
		_, _ = decodeEpoch(body)
		_ = decodeFlipOK(body, &flipReply{})
		_ = decodeError(body)
		_, _, _, _, _ = readFrame(bufio.NewReader(bytes.NewReader(body)), nil)
		if rec, err := decodePrepare(body); err == nil {
			if again := appendRecordBody(nil, rec); !bytes.Equal(again, body) {
				t.Fatalf("prepare body re-encodes differently:\n got %x\nwant %x", again, body)
			}
		}
		var rep flipReply
		if err := decodeRecordOK(body, &rep); err == nil {
			if again := appendRecordBody([]byte{okByte(rep.OK)}, rep.Record); !bytes.Equal(again, body) {
				t.Fatalf("recordok body re-encodes differently:\n got %x\nwant %x", again, body)
			}
		}
	})
}
