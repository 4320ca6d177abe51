package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.x", Start: 12, End: 18},
		{ID: 6, Parent: 3, Name: "b.y", Start: 0, End: 5}, // outside its parent: covers nothing
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Children plus the parent's self time make up the parent exactly when
	// the children do not overlap and lie inside it.
	tree := []span{
		{ID: 1, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Start: 0, End: 300},
		{ID: 3, Parent: 1, Start: 300, End: 900},
	}
	s := selfTimes(tree)
	if s[1]+tree[1].dur()+tree[2].dur() != tree[0].dur() {
		t.Errorf("self %d + children %d + %d != root %d", s[1], tree[1].dur(), tree[2].dur(), tree[0].dur())
	}
}

func TestTracerParentsAndRequestIDs(t *testing.T) {
	tr := newTracer()
	tr.curReq.Store(7)
	var inner, cross int
	outer := tr.in("outer", 0, func() {
		inner = tr.in("inner", -1, func() {
			// what a layer's own goroutine would do while the replay
			// goroutine is inside "inner"
			done := make(chan struct{})
			go func() {
				defer close(done)
				cross = tr.begin("cross", -1)
				tr.end(cross)
			}()
			<-done
		})
	})
	after := tr.begin("after", -1)
	tr.end(after)

	byID := map[int]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
		if s.Req != 7 {
			t.Errorf("span %s carries request %d, want 7", s.Name, s.Req)
		}
		if s.End < s.Start {
			t.Errorf("span %s not closed", s.Name)
		}
	}
	if byID[inner].Parent != outer || byID[cross].Parent != inner {
		t.Errorf("parents: inner→%d (want %d), cross→%d (want %d)", byID[inner].Parent, outer, byID[cross].Parent, inner)
	}
	if byID[after].Parent != 0 {
		t.Errorf("current parent not restored after in(): %d", byID[after].Parent)
	}
	if err := checkSpanTree(tr.spans); err != nil {
		t.Error(err)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	if id := tr.in("x", 0, func() { ran = true }); id != 0 || !ran {
		t.Errorf("nil tracer: id %d, ran %v", id, ran)
	}
	tr.end(tr.begin("y", -1))
}

func TestRouterSplitTakesTheSlowestShard(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRouter, Start: 0, End: 500},
		{ID: 2, Parent: 1, Name: spanShardScore, Start: 100, End: 200},
		{ID: 3, Parent: 1, Name: spanShardScore, Start: 100, End: 260},
	}
	q, score, wire := routerSplit(spans, func(span) bool { return true })
	if q != 500 || score != 160 || wire != 340 {
		t.Errorf("routerSplit = %d %d %d, want 500 160 340", q, score, wire)
	}
}
