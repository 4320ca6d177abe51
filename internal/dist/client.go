package dist

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/infer"
)

// call is one in-flight request on a pipelined connection. The reader
// goroutine decodes the reply frame straight into the caller-owned
// shardReply and closes done; the caller owns reply again once done is
// closed (and only then — an abandoned call's reply buffer must not be
// reused until the connection it was pending on is dead).
type call struct {
	reply *shardReply
	info  *ShardInfo // hello replies land here instead
	flip  *flipReply // prepare/commit/record replies land here instead
	err   error
	done  chan struct{}
}

// clientConn is one pipelined connection to a shard server: any number
// of requests in flight, matched to replies by request ID. A write
// puts one complete frame on the wire under wmu; the reader goroutine
// dispatches replies. Once the connection errors, every pending and
// future call fails fast and the conn is discarded by its pool.
type clientConn struct {
	conn net.Conn
	wmu  sync.Mutex

	mu      sync.Mutex
	pending map[uint32]*call
	nextID  uint32
	dead    bool
	deadErr error

	info *ShardInfo // handshake result, immutable after dial
}

// dialShard connects, handshakes (hello → info), and starts the reader.
//
//hdc:coldpath connection establishment runs once per pooled conn, off the query hot path
func dialShard(addr string, timeout time.Duration) (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		// Query and reply frames are complete logical messages; never
		// trade latency for segment coalescing.
		_ = tc.SetNoDelay(true)
	}
	c := &clientConn{conn: nc, pending: make(map[uint32]*call)}
	go c.readLoop()
	hello := &call{info: &ShardInfo{}, done: make(chan struct{})}
	id := c.register(hello)
	if err := c.write(appendHello(nil, id), timeout); err != nil {
		c.fail(err)
		return nil, err
	}
	select {
	case <-hello.done:
	case <-time.After(timeout):
		c.fail(fmt.Errorf("%w: handshake timeout from %s", ErrProtocol, addr))
		return nil, fmt.Errorf("dist: handshake timeout from %s", addr)
	}
	if hello.err != nil {
		c.fail(hello.err)
		return nil, hello.err
	}
	c.info = hello.info
	return c, nil
}

// register allocates a request ID and parks the call.
func (c *clientConn) register(cl *call) uint32 {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.pending[id] = cl
	c.mu.Unlock()
	return id
}

// drop removes a call (timeout abandonment); the reader no longer
// touches its buffers once it is out of the map.
func (c *clientConn) drop(id uint32) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// write sends one frame with a write deadline, so a wedged peer cannot
// park the router goroutine forever.
//
//hdc:hotpath
func (c *clientConn) write(frame []byte, timeout time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if timeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	_, err := c.conn.Write(frame)
	return err
}

// fail marks the connection dead, closes it, and fails every pending
// call; idempotent.
func (c *clientConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.deadErr = err
	pend := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.conn.Close()
	for _, cl := range pend {
		cl.err = err
		close(cl.done)
	}
}

// take claims the call registered under id, or nil when it was dropped
// or the conn already failed.
func (c *clientConn) take(id uint32) *call {
	c.mu.Lock()
	cl := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return cl
}

// readLoop decodes reply frames and completes their calls. It owns the
// read side until the connection dies; the frame scratch is reused
// across frames, and result payloads are decoded directly into the
// waiting call's reply buffers.
//
//hdc:hotpath
func (c *clientConn) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var frame []byte
	for {
		op, reqID, body, fr, err := readFrame(br, frame)
		frame = fr
		if err != nil {
			c.fail(err)
			return
		}
		cl := c.take(reqID)
		if cl == nil {
			continue // abandoned by a timeout; drop the late reply
		}
		switch op {
		case opResults:
			if cl.reply == nil {
				cl.err = errBadOp(op)
			} else {
				cl.err = decodeResults(body, cl.reply)
			}
		case opInfo:
			if cl.info == nil {
				cl.err = errBadOp(op)
			} else if info, err := decodeInfo(body); err != nil {
				cl.err = err
			} else {
				*cl.info = *info
			}
		case opPrepareOK, opCommitOK, opRecordOK:
			switch {
			case cl.flip == nil:
				cl.err = errBadOp(op)
			case op == opRecordOK:
				cl.err = decodeRecordOK(body, cl.flip)
			default:
				cl.err = decodeFlipOK(body, cl.flip)
			}
		case opError:
			cl.err = decodeError(body)
		default:
			cl.err = errBadOp(op)
		}
		close(cl.done)
	}
}

// roundTrip sends one query and blocks until the decoded reply is in
// rep or the timeout fires. On timeout the whole connection is
// condemned (a replica that blows its deadline is suspect, and killing
// the conn is what guarantees the reader stops touching rep before the
// caller retries with it): fail() closes the conn, the reader exits,
// and every other in-flight call on it fails over too.
//
//hdc:hotpath
func (c *clientConn) roundTrip(buf []byte, epoch uint64, base, k int, rep infer.Representation, batch *infer.Batch, timeout time.Duration, out *shardReply) ([]byte, error) {
	cl := &call{reply: out, done: make(chan struct{})} //hdc:allow hotpathalloc one call object and channel per shard RPC is the pipelining design
	id := c.register(cl)
	var err error
	buf, err = appendQuery(buf, id, epoch, base, k, rep, batch)
	if err != nil {
		c.drop(id)
		return buf, err
	}
	if err := c.write(buf, timeout); err != nil {
		c.drop(id)
		c.fail(err)
		return buf, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-cl.done:
		return buf, cl.err
	case <-timer.C:
		c.fail(errShardTimeout(timeout))
		// fail() closed the conn and completes every pending call —
		// including this one — so after done fires the reader provably
		// no longer writes into out and the caller may reuse it.
		<-cl.done
		if cl.err == nil {
			cl.err = errShardTimeout(timeout)
		}
		return buf, cl.err
	}
}

// flipTrip sends one enrollment control frame — op is opPrepare,
// opCommit, or opRecord, each about rec's epoch — and waits for its
// reply. Same condemnation-on-timeout discipline as roundTrip.
//
//hdc:coldpath enrollment flips are rare control traffic, off the query hot path
func (c *clientConn) flipTrip(op byte, rec *EnrollRecord, timeout time.Duration) (flipReply, error) {
	cl := &call{flip: &flipReply{}, done: make(chan struct{})}
	id := c.register(cl)
	var frame []byte
	if op == opPrepare {
		frame = appendPrepare(nil, id, rec)
	} else {
		frame = appendEpochFrame(nil, op, id, rec.Epoch)
	}
	if err := c.write(frame, timeout); err != nil {
		c.drop(id)
		c.fail(err)
		return flipReply{}, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-cl.done:
		return *cl.flip, cl.err
	case <-timer.C:
		c.fail(errShardTimeout(timeout))
		<-cl.done
		if cl.err == nil {
			cl.err = errShardTimeout(timeout)
		}
		return flipReply{}, cl.err
	}
}

// broken reports whether the connection has failed.
func (c *clientConn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// close tears the connection down, failing any pending calls.
func (c *clientConn) close() {
	c.fail(ErrClosed)
}

// poolConns is the number of pipelined connections a router keeps to
// each replica.
const poolConns = 2

// replicaPool hands out pipelined connections to one replica address,
// round-robin over poolConns conns, dialing lazily and discarding
// broken conns so the next request redials.
type replicaPool struct {
	addr        string
	dialTimeout time.Duration
	brk         *breaker // per-replica circuit breaker (nil: always allow)

	mu     sync.Mutex
	conns  [poolConns]*clientConn
	next   int
	closed bool
}

func newReplicaPool(addr string, dialTimeout time.Duration) *replicaPool {
	return &replicaPool{addr: addr, dialTimeout: dialTimeout}
}

// get returns a live connection, dialing if the slot is empty or dead.
//
//hdc:hotpath
func (p *replicaPool) get() (*clientConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	slot := p.next
	p.next = (p.next + 1) % poolConns
	c := p.conns[slot]
	p.mu.Unlock()
	if c != nil && !c.broken() {
		return c, nil
	}
	// Slow path: (re)dial outside the lock. Concurrent callers may race
	// the same slot; whoever finds a live conn already installed keeps
	// it and discards their own dial — closing the other dialer's conn
	// here would fail the caller it was just handed to.
	nc, err := dialShard(p.addr, p.dialTimeout)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		nc.close()
		return nil, ErrClosed
	}
	if cur := p.conns[slot]; cur != nil && !cur.broken() {
		p.mu.Unlock()
		nc.close()
		return cur, nil
	}
	old := p.conns[slot]
	p.conns[slot] = nc
	p.mu.Unlock()
	if old != nil {
		old.close()
	}
	return nc, nil
}

// info returns the handshake info of a live connection (dialing one if
// needed).
func (p *replicaPool) info() (*ShardInfo, error) {
	c, err := p.get()
	if err != nil {
		return nil, err
	}
	return c.info, nil
}

// close tears down every pooled connection.
func (p *replicaPool) close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = [poolConns]*clientConn{}
	p.closed = true
	p.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.close()
		}
	}
}

//hdc:coldpath error construction for timed-out replicas
func errShardTimeout(d time.Duration) error {
	return fmt.Errorf("%w: no reply within %v", ErrProtocol, d)
}
