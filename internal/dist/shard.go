package dist

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/classmem"
	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/tensor"
)

// Slab is one class-range assignment of a shard server: an engine over
// a range view of the frozen class memory (infer.NewRangeBackend) plus
// the global index of its first class.
type Slab struct {
	// Base is the global class index of the engine's local class 0.
	Base int
	// Engine serves the slab; its backend typically wraps
	// infer.NewRangeBackend(global, Base, Base+width).
	Engine *infer.Engine
}

// ShardServer serves one or more class-range slabs over the compact
// binary protocol. Every accepted connection gets a reader goroutine;
// each query frame is decoded into pooled scratch and executed on its
// own goroutine against the slab's shared engine, so one pipelined
// connection keeps many batches in flight — the per-connection write
// lock is the only serialization point, held just long enough to put
// one fully encoded frame on the wire.
//
// A server with a growing range — a classmem.Live view of the tail of
// the class space — additionally serves that range epoch-consistently:
// a query tagged epoch e is answered by the view's engine for exactly
// the base range plus the first e enrollments, and a query tagged past
// the committed epoch is refused so the router fails over to a replica
// that has flipped. Prepare and commit frames drive the view's store
// through the two-phase flip, and record frames read its enrollments
// back out.
type ShardServer struct {
	info   ShardInfo
	byBase map[int]*infer.Engine
	grow   *classmem.Live

	scratch sync.Pool // *shardScratch: per-query working set

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	handlers sync.WaitGroup
}

// shardScratch is one query's working set: decoded probe slab, engine
// result buffer, and the encoded reply frame.
type shardScratch struct {
	q    wireQuery
	rbuf infer.ResultBuf
	out  []byte
}

// NewShardServer wraps the slabs for serving. All engines must agree on
// probe dimensionality, representation, and backend name (they are
// views of one frozen class memory); slabs may not repeat a base. An
// optional live view (at most one; nil is none) makes the tail range
// enrollable.
func NewShardServer(slabs []Slab, growing ...*classmem.Live) (*ShardServer, error) {
	s := &ShardServer{
		byBase: make(map[int]*infer.Engine, len(slabs)),
		conns:  make(map[net.Conn]struct{}),
	}
	if len(growing) > 1 {
		return nil, errors.New("dist: at most one growing slab")
	}
	if len(growing) == 1 {
		s.grow = growing[0]
	}
	if len(slabs) == 0 && s.grow == nil {
		return nil, errors.New("dist: shard server needs at least one slab")
	}
	s.scratch.New = func() any { return new(shardScratch) }
	for i, sl := range slabs {
		if sl.Engine == nil {
			return nil, fmt.Errorf("dist: slab %d has no engine", i)
		}
		if _, dup := s.byBase[sl.Base]; dup {
			return nil, fmt.Errorf("dist: duplicate slab base %d", sl.Base)
		}
		eng := sl.Engine
		if i == 0 {
			s.info = ShardInfo{
				Version: ProtocolVersion,
				Rep:     eng.Requires(),
				Dim:     eng.Dim(),
				Name:    eng.Name(),
			}
		} else if eng.Dim() != s.info.Dim || eng.Requires() != s.info.Rep || eng.Name() != s.info.Name {
			return nil, fmt.Errorf("dist: slab %d (%s d=%d) disagrees with slab 0 (%s d=%d)",
				i, eng.Name(), eng.Dim(), s.info.Name, s.info.Dim)
		}
		s.byBase[sl.Base] = eng
		labels := make([]string, eng.Classes())
		for c := range labels {
			labels[c] = eng.Backend().Label(c)
		}
		s.info.Slabs = append(s.info.Slabs, SlabInfo{Base: sl.Base, Classes: eng.Classes(), Labels: labels})
	}
	if g := s.grow; g != nil {
		if _, dup := s.byBase[g.First()]; dup {
			return nil, fmt.Errorf("dist: growing slab base %d collides with a frozen slab", g.First())
		}
		if len(slabs) == 0 {
			s.info = ShardInfo{
				Version: ProtocolVersion,
				Rep:     g.Requires(),
				Dim:     g.Dim(),
				Name:    g.Name(),
			}
		} else if g.Dim() != s.info.Dim || g.Requires() != s.info.Rep || g.Name() != s.info.Name {
			return nil, fmt.Errorf("dist: growing slab (%s d=%d) disagrees with frozen slabs (%s d=%d)",
				g.Name(), g.Dim(), s.info.Name, s.info.Dim)
		}
	}
	return s, nil
}

// Info returns the handshake description of the served slabs, with the
// growing slab (if any) reported at its current committed epoch.
func (s *ShardServer) Info() ShardInfo {
	if s.grow == nil {
		return s.info
	}
	info := s.info
	snap := s.grow.Store().Snapshot()
	info.Epoch = snap.Epoch
	// Snapshot labels are global; the slab serves the tail from First on.
	labels := snap.Mem.Labels[s.grow.First():]
	g := SlabInfo{Base: s.grow.First(), Classes: len(labels), Labels: labels}
	info.Slabs = append(info.Slabs[:len(info.Slabs):len(info.Slabs)], g)
	return info
}

// Serve accepts connections on ln until Close; it returns nil after a
// Close-initiated shutdown and the accept error otherwise.
func (s *ShardServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Addr returns the bound listener address, nil before Serve.
func (s *ShardServer) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every live connection, and waits for
// in-flight query handlers to finish (their replies may fail to write —
// the peer is gone — but the engines are left quiescent). Idempotent.
func (s *ShardServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.handlers.Wait()
	return nil
}

// connWriter serializes frame writes on one connection.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

// write puts one complete frame on the wire.
//
//hdc:hotpath
func (w *connWriter) write(frame []byte) error {
	w.mu.Lock()
	_, err := w.conn.Write(frame)
	w.mu.Unlock()
	return err
}

// serveConn runs one connection's read loop. Hello frames are answered
// inline; every query is decoded into pooled scratch synchronously
// (the frame buffer is reused by the next read) and executed on its
// own goroutine, so a large batch never blocks the pipeline behind it.
func (s *ShardServer) serveConn(conn net.Conn) {
	defer s.handlers.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	w := &connWriter{conn: conn}
	br := bufio.NewReaderSize(conn, 64<<10)
	var frame []byte
	var hello []byte
	for {
		op, reqID, body, fr, err := readFrame(br, frame)
		frame = fr
		if err != nil {
			return // EOF, peer reset, or corrupt framing: drop the connection
		}
		switch op {
		case opHello:
			cur := s.Info()
			hello = appendInfo(hello[:0], reqID, &cur)
			if w.write(hello) != nil {
				return
			}
		case opPrepare:
			rec, err := decodePrepare(body)
			if err != nil {
				_ = w.write(appendError(nil, reqID, err.Error()))
				return
			}
			if w.write(s.handleFlip(reqID, rec, false)) != nil {
				return
			}
		case opCommit, opRecord:
			epoch, err := decodeEpoch(body)
			if err != nil {
				_ = w.write(appendError(nil, reqID, err.Error()))
				return
			}
			var reply []byte
			if op == opCommit {
				reply = s.handleFlip(reqID, &EnrollRecord{Epoch: epoch}, true)
			} else {
				reply = s.handleRecord(reqID, epoch)
			}
			if w.write(reply) != nil {
				return
			}
		case opQuery:
			sc := s.scratch.Get().(*shardScratch)
			if err := decodeQuery(body, &sc.q); err != nil {
				// A misframed query is indistinguishable from stream
				// corruption; answer and drop the connection.
				_ = w.write(appendError(sc.out, reqID, err.Error()))
				s.scratch.Put(sc)
				return
			}
			s.handlers.Add(1)
			go s.handleQuery(w, reqID, sc)
		default:
			// Unknown op: protocol mismatch; drop the connection.
			_ = w.write(appendError(frame[:0:0], reqID, errBadOp(op).Error()))
			return
		}
	}
}

// handleQuery executes one decoded query against its slab engine and
// writes the reply frame. Errors are answered in-band with the same
// request ID so the client's pipelining never desynchronizes.
//
//hdc:hotpath
func (s *ShardServer) handleQuery(w *connWriter, reqID uint32, sc *shardScratch) {
	defer s.handlers.Done()
	var eng *infer.Engine
	if s.grow != nil && sc.q.base == s.grow.First() {
		// Epoch-consistent serving: answer from exactly the class prefix
		// the query's epoch contains. The view refuses epochs this replica
		// has not committed — the router fails over to one that has, so a
		// merged ranking never mixes epochs.
		var err error
		if eng, err = s.grow.At(sc.q.epoch); err != nil {
			_ = w.write(appendError(sc.out, reqID, err.Error()))
			s.scratch.Put(sc)
			return
		}
	} else if eng = s.byBase[sc.q.base]; eng == nil {
		_ = w.write(appendError(sc.out, reqID, errUnknownSlab(sc.q.base).Error()))
		s.scratch.Put(sc)
		return
	}
	var batch infer.Batch
	if sc.q.rep == infer.RepPacked {
		batch.Packed = sc.q.pack
	} else {
		batch.Dense = tensor.FromSlice(sc.q.flat, sc.q.n, sc.q.dim)
	}
	results, err := eng.TryQueryInto(&batch, sc.q.k, &sc.rbuf)
	if err != nil {
		_ = w.write(appendError(sc.out, reqID, err.Error()))
		s.scratch.Put(sc)
		return
	}
	sc.out = appendResults(sc.out[:0], reqID, sc.q.base, results)
	_ = w.write(sc.out)
	s.scratch.Put(sc)
}

// handleFlip answers one prepare or commit frame against the growing
// store. Clean ok=0 acks carry the committed epoch: a gap (the replica's
// committed epoch lags the flip), a commit without a prepare, and a
// different enrollment already staged at the next epoch — the router
// reads that one back (handleRecord) and finishes it first. A conflict
// at an epoch this replica has already published is split brain and
// answers as an error.
//
//hdc:coldpath enrollment flips are rare control traffic, off the query hot path
func (s *ShardServer) handleFlip(reqID uint32, rec *EnrollRecord, commit bool) []byte {
	if s.grow == nil {
		return appendError(nil, reqID, msgNotGrowing)
	}
	st := s.grow.Store()
	op := opPrepareOK
	var err error
	if commit {
		op = opCommitOK
		err = st.Commit(rec.Epoch)
	} else if wpv := (st.Dim() + 63) / 64; len(rec.Words) != wpv {
		return appendError(nil, reqID, fmt.Sprintf("prepare carries %d words, dimension %d needs %d", len(rec.Words), st.Dim(), wpv))
	} else {
		err = st.Prepare(rec.Epoch, rec.Label, hdc.BinaryFromWords(st.Dim(), rec.Words))
	}
	committed := st.Epoch()
	switch {
	case err == nil:
		return appendFlipOK(nil, op, reqID, true, committed)
	case errors.Is(err, classmem.ErrEpochGap), errors.Is(err, classmem.ErrNotPrepared),
		errors.Is(err, classmem.ErrEpochConflict) && rec.Epoch == committed+1:
		return appendFlipOK(nil, op, reqID, false, committed)
	default:
		return appendError(nil, reqID, err.Error())
	}
}

// handleRecord answers a record frame from the growing store: the
// enrollment that created epoch, if this replica has published it or
// has it staged as the next one.
//
//hdc:coldpath enrollment flips are rare control traffic, off the query hot path
func (s *ShardServer) handleRecord(reqID uint32, epoch uint64) []byte {
	if s.grow == nil {
		return appendError(nil, reqID, msgNotGrowing)
	}
	label, words, ok := s.grow.Store().EnrolledRecord(epoch)
	return appendRecordOK(nil, reqID, ok, &EnrollRecord{Epoch: epoch, Label: label, Words: words})
}

const msgNotGrowing = "shard has no growing slab; enrollment is not served here"

//hdc:coldpath error construction for rejected frames
func errBadOp(op byte) error {
	return fmt.Errorf("%w: unexpected op %d", ErrProtocol, op)
}

//hdc:coldpath error construction for rejected queries
func errUnknownSlab(base int) error {
	return fmt.Errorf("%w: no slab at base %d", ErrRemote, base)
}
