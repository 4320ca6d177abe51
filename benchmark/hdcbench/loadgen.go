package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Phases of a serving run; only open and closed samples feed metrics,
// but every response of every phase is checked by the oracle.
const (
	phaseWarm = iota
	phaseOpen
	phaseClosed
)

// sample is one request as the generator saw it.
type sample struct {
	seq    int // position in the stream; decides kind and body
	kind   int
	slot   int // pool slot, or the enrollment's sequence number
	phase  int
	late   time.Duration // send start − due time (generator lateness)
	lat    time.Duration // completion − due time
	status int           // HTTP status; 0 on a transport error
	body   []byte        // response body, parsed after timing ends
}

// generator drives one server address over a fixed set of keep-alive
// connections, one per worker goroutine.
type generator struct {
	base    string
	pools   *pools
	clients []*http.Client
	next    atomic.Int64 // stream position
	enrolls atomic.Int64 // enrollment sequence
}

func newGenerator(addr string, p *pools, conns int) *generator {
	g := &generator{base: "http://" + addr, pools: p}
	for range conns {
		g.clients = append(g.clients, &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// fire sends stream request seq on worker's connection. A zero due time
// means "due now" (closed loop).
func (g *generator) fire(worker, seq, phase int, due time.Time) sample {
	s := sample{seq: seq, phase: phase}
	s.kind, s.slot = g.pools.pick(seq)
	var url string
	var body []byte
	switch s.kind {
	case kindEnroll:
		s.slot = int(g.enrolls.Add(1)) - 1
		url, body = g.base+"/v1/enroll", g.pools.enrollBody(s.slot)
	case kindEmbed:
		url, body = g.base+"/v1/embed-classify", g.pools.bodies[s.slot]
	default:
		url, body = g.base+"/v1/classify", g.pools.bodies[s.slot]
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	s.late = sent.Sub(due)
	resp, err := g.clients[worker].Post(url, "application/json", bytes.NewReader(body))
	if err == nil {
		s.status = resp.StatusCode
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			s.status = 0
		}
	}
	s.lat = time.Since(due)
	return s
}

// poissonSchedule returns the due-time offsets of an open-loop phase:
// cumulative exponential gaps at rate per second, up to dur.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	var out []time.Duration
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at > dur {
			return out
		}
		out = append(out, at)
	}
}

// dispatchOpen is the open-loop scheduler: one goroutine walks the
// schedule and hands each request, at its due time, to an idle worker.
// The hand-off is unbuffered, so while every worker is busy a due
// request waits here, in the generator — and because fire measures from
// the due time it is handed, that wait is counted as latency, not lost.
func dispatchOpen(offsets []time.Duration, workers int, fire func(worker, i int, due time.Time) sample) []sample {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	perWorker := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				perWorker[w] = append(perWorker[w], fire(w, j.i, j.due))
			}
		}()
	}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return flatten(perWorker)
}

func (g *generator) openLoop(rate float64, dur time.Duration) []sample {
	offsets := poissonSchedule(g.pools.seed, rate, dur)
	base := int(g.next.Add(int64(len(offsets)))) - len(offsets)
	return dispatchOpen(offsets, len(g.clients), func(w, i int, due time.Time) sample {
		return g.fire(w, base+i, phaseOpen, due)
	})
}

// closedLoop has every connection send its next request the moment the
// previous one completes, for dur.
func (g *generator) closedLoop(phase int, dur time.Duration) []sample {
	perWorker := make([][]sample, len(g.clients))
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				seq := int(g.next.Add(1)) - 1
				perWorker[w] = append(perWorker[w], g.fire(w, seq, phase, time.Time{}))
			}
		}()
	}
	wg.Wait()
	return flatten(perWorker)
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}
