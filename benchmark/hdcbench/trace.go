package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused this one (0 for a root).
// Start and End are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out when the run
// ends. A nil tracer records nothing, which is how the untraced replay
// runs the identical code path for the overhead figure.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	// The replay is one request at a time on one goroutine, but the
	// layers it calls into run parts of the work on their own goroutines
	// (the coalescer's batch executor, the shard servers). Those see the
	// request they work for, and the span that caused them, through here.
	curReq    atomic.Int64
	curParent atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID; parent < 0 means "whatever
// span the replay goroutine last declared current".
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	if parent < 0 {
		parent = int(t.curParent.Load())
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: int(t.curReq.Load()), Name: name, Start: now,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// in times fn as a child of parent and makes the new span the current
// parent for work fn causes on other goroutines.
func (t *tracer) in(name string, parent int, fn func()) int {
	id := t.begin(name, parent)
	if t != nil {
		prev := t.curParent.Swap(int64(id))
		defer t.curParent.Store(prev)
	}
	fn()
	t.end(id)
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children (overlapping children are not
// double-counted, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// parent. Children arrive in start order per goroutine but may overlap
// across goroutines, so the union is swept.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return time.Duration(total)
}

// writeSpans stores the trace as one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
