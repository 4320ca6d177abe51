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

// GrowingSlab configures the one class range of a shard that accepts
// live enrollment: the tail range of the class space, served from an
// RCU-versioned store instead of a frozen engine. Queries name the
// epoch they must be served at, and the shard realizes exactly that
// class prefix; prepare/commit frames drive the store's two-phase
// flip. Every other range of the class space is frozen — enrollment
// only ever appends classes, and appended classes land at the end.
type GrowingSlab struct {
	// Base is the global class index of the range's first class.
	Base int
	// Width is the range's base-memory width: the store's frozen class
	// count minus Base (the range must be the tail of the class space).
	Width int
	// Backend names the served backend ("float", "binary", "imc").
	Backend string
	// Workers is the engine shard-worker count (0 = NumCPU).
	Workers int
	// Store owns the full class memory plus enrolled rows; typically
	// classmem.OpenVersioned so enrollments survive a crash.
	Store *classmem.Versioned
}

// ShardServer serves one or more class-range slabs over the compact
// binary protocol. Every accepted connection gets a reader goroutine;
// each query frame is decoded into pooled scratch and executed on its
// own goroutine against the slab's shared engine, so one pipelined
// connection keeps many batches in flight — the per-connection write
// lock is the only serialization point, held just long enough to put
// one fully encoded frame on the wire.
//
// A server with a GrowingSlab additionally serves that range
// epoch-consistently: a query tagged epoch e is answered from the base
// range plus exactly the first e enrollments (engines per epoch are
// cached over prefix views — published rows are immutable, so an old
// epoch's view stays byte-valid while newer epochs append), and a query
// tagged past the committed epoch is refused so the router fails over
// to a replica that has flipped.
type ShardServer struct {
	info   ShardInfo
	byBase map[int]*infer.Engine

	grow     *GrowingSlab
	gmu      sync.Mutex
	gEngines map[uint64]*infer.Engine // epoch → engine over the epoch's prefix view

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
// optional GrowingSlab (at most one) makes the tail range enrollable.
func NewShardServer(slabs []Slab, growing ...*GrowingSlab) (*ShardServer, error) {
	s := &ShardServer{
		byBase: make(map[int]*infer.Engine, len(slabs)),
		conns:  make(map[net.Conn]struct{}),
	}
	if len(growing) > 1 {
		return nil, errors.New("dist: at most one growing slab")
	}
	if len(growing) == 1 && growing[0] != nil {
		s.grow = growing[0]
		s.gEngines = make(map[uint64]*infer.Engine)
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
		if g.Store == nil {
			return nil, errors.New("dist: growing slab has no store")
		}
		if _, dup := s.byBase[g.Base]; dup {
			return nil, fmt.Errorf("dist: growing slab base %d collides with a frozen slab", g.Base)
		}
		if g.Base+g.Width != g.Store.Base() {
			return nil, fmt.Errorf("dist: growing slab [%d, %d) is not the tail of the %d-class base memory",
				g.Base, g.Base+g.Width, g.Store.Base())
		}
		// Build the committed-epoch engine now: it validates the backend
		// name and geometry, and fixes the shard identity when the growing
		// slab is the only one.
		eng, err := s.growEngine(g.Store.Epoch())
		if err != nil {
			return nil, err
		}
		if len(slabs) == 0 {
			s.info = ShardInfo{
				Version: ProtocolVersion,
				Rep:     eng.Requires(),
				Dim:     eng.Dim(),
				Name:    eng.Name(),
			}
		} else if eng.Dim() != s.info.Dim || eng.Requires() != s.info.Rep || eng.Name() != s.info.Name {
			return nil, fmt.Errorf("dist: growing slab (%s d=%d) disagrees with frozen slabs (%s d=%d)",
				eng.Name(), eng.Dim(), s.info.Name, s.info.Dim)
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
	snap := s.grow.Store.Snapshot()
	info.Epoch = snap.Epoch
	g := SlabInfo{
		Base:    s.grow.Base,
		Classes: s.grow.Width + int(snap.Epoch),
	}
	// Snapshot labels are global; the slab serves the tail from Base on.
	g.Labels = snap.Mem.Labels[s.grow.Base:]
	info.Slabs = append(info.Slabs[:len(info.Slabs):len(info.Slabs)], g)
	return info
}

// growEngine returns the engine serving the growing range at the given
// epoch, building and caching it on first use. The engine wraps a range
// view [Base, Base+Width+epoch) of a store backend whose snapshot is at
// least that wide — published rows are immutable, so the prefix view is
// the epoch's exact class memory no matter how far the store has grown
// since.
func (s *ShardServer) growEngine(epoch uint64) (*infer.Engine, error) {
	g := s.grow
	s.gmu.Lock()
	defer s.gmu.Unlock()
	if eng, ok := s.gEngines[epoch]; ok {
		return eng, nil
	}
	be, err := g.Store.Backend(g.Backend)
	if err != nil {
		return nil, err
	}
	var opts []infer.Option
	if g.Workers > 0 {
		opts = append(opts, infer.WithWorkers(g.Workers)) //hdc:allow hotpathalloc once-per-epoch cache miss; engine construction below allocates regardless
	}
	eng, err := infer.NewChecked(infer.NewRangeBackend(be, g.Base, g.Base+g.Width+int(epoch)), opts...)
	if err != nil {
		return nil, err
	}
	s.gEngines[epoch] = eng
	// Bound the cache: queries target recent epochs (the router tags with
	// its published epoch, which only advances), so engines far behind the
	// committed epoch are dead weight.
	if committed := g.Store.Epoch(); len(s.gEngines) > 16 {
		for e := range s.gEngines {
			if e+16 < committed {
				delete(s.gEngines, e)
			}
		}
	}
	return eng, nil
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
		case opCommit:
			epoch, err := decodeCommit(body)
			if err != nil {
				_ = w.write(appendError(nil, reqID, err.Error()))
				return
			}
			if w.write(s.handleFlip(reqID, &EnrollRecord{Epoch: epoch}, true)) != nil {
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
	if s.grow != nil && sc.q.base == s.grow.Base {
		// Epoch-consistent serving: answer from exactly the class prefix
		// the query's epoch contains, and refuse epochs this replica has
		// not committed — the router fails over to one that has, so a
		// merged ranking never mixes epochs.
		if committed := s.grow.Store.Epoch(); sc.q.epoch > committed {
			_ = w.write(appendError(sc.out, reqID, errEpochAhead(sc.q.epoch, committed).Error()))
			s.scratch.Put(sc)
			return
		}
		var err error
		if eng, err = s.growEngine(sc.q.epoch); err != nil {
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
// store. Gap refusals (the replica's committed epoch lags the flip) and
// commit-without-prepare are clean ok=0 acks carrying the committed
// epoch, so the router can replay what this replica missed; a content
// conflict — the same epoch bound to a different enrollment — is a real
// fault and answers as an error.
//
//hdc:coldpath enrollment flips are rare control traffic, off the query hot path
func (s *ShardServer) handleFlip(reqID uint32, rec *EnrollRecord, commit bool) []byte {
	if s.grow == nil {
		return appendError(nil, reqID, "shard has no growing slab; enrollment is not served here")
	}
	st := s.grow.Store
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
	switch {
	case err == nil:
		return appendFlipOK(nil, op, reqID, true, st.Epoch())
	case errors.Is(err, classmem.ErrEpochGap), errors.Is(err, classmem.ErrNotPrepared):
		return appendFlipOK(nil, op, reqID, false, st.Epoch())
	default:
		return appendError(nil, reqID, err.Error())
	}
}

//hdc:coldpath error construction for rejected frames
func errBadOp(op byte) error {
	return fmt.Errorf("%w: unexpected op %d", ErrProtocol, op)
}

//hdc:coldpath error construction for rejected queries
func errEpochAhead(want, committed uint64) error {
	return fmt.Errorf("%w: epoch %d not committed here (at %d)", ErrRemote, want, committed)
}

//hdc:coldpath error construction for rejected queries
func errUnknownSlab(base int) error {
	return fmt.Errorf("%w: no slab at base %d", ErrRemote, base)
}
