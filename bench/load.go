package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the number of load connections: one per core of the box
// (nproc = 2), all from this one process.
const conns = 2

// serveRate is serve_mix's fixed arrival rate in ops/s, about 40% of
// what the daemon sustains closed-loop on the reference box.
const serveRate = 1000

// newClient returns a client limited to n kept-alive connections.
func newClient(n int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// post sends one JSON body and returns the status and the whole reply.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stats is the part of GET /v1/stats the harness reads.
type stats struct {
	Queue struct {
		Pending      int `json:"pending"`
		InFlight     int `json:"in_flight"`
		Acked        int `json:"acked"`
		DeadLettered int `json:"dead_lettered"`
	} `json:"queue"`
	Collections map[string]int `json:"collections"`
	Feedback    struct {
		Accepted int64 `json:"accepted"`
		Applied  int64 `json:"applied"`
		Pending  int   `json:"pending"`
	} `json:"feedback"`
	Cache struct {
		Hits          int64   `json:"hits"`
		Misses        int64   `json:"misses"`
		HitRate       float64 `json:"hit_rate"`
		Invalidations int64   `json:"invalidations"`
	} `json:"cache"`
}

// settled is the number of messages the queue has finished with.
func (s stats) settled() int { return s.Queue.Acked + s.Queue.DeadLettered }

func getStats(ctx context.Context, c *http.Client, base string) (stats, error) {
	var st stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitSettled polls /v1/stats until the queue has finished with total
// messages and holds none, and returns the final snapshot.
func waitSettled(ctx context.Context, c *http.Client, base string, total int) (stats, error) {
	for {
		st, err := getStats(ctx, c, base)
		if err == nil && st.settled() >= total && st.Queue.Pending == 0 && st.Queue.InFlight == 0 {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("waiting for %d settled messages (have %d): %w", total, st.settled(), ctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

// sample is one completed operation.
type sample struct {
	kind   opKind
	status int
	empty  bool          // a 200 ask whose result list is empty
	lat    time.Duration // reply − send (closed loop) or reply − due (open loop)
	late   time.Duration // send − due (open loop)
	done   time.Duration // reply, since the phase began
	body   []byte        // kept only when the caller asked for replies
}

// request is what a loop sends for its i-th operation.
type request struct {
	kind opKind
	body []byte
}

var paths = [...]string{opAsk: "/v1/ask", opReport: "/v1/messages", opFeedback: "/v1/feedback"}

var emptyResults = []byte(`"results": []`)

func do(ctx context.Context, c *http.Client, base string, r request, keep bool) (sample, error) {
	status, body, err := post(ctx, c, base+paths[r.kind], r.body)
	s := sample{kind: r.kind, status: status}
	if err != nil {
		return s, err
	}
	s.empty = r.kind == opAsk && status == http.StatusOK && bytes.Contains(body, emptyResults)
	if keep {
		s.body = body
	}
	return s, nil
}

// closedLoop keeps conns requests outstanding: each connection sends
// its next request when the previous reply arrived. It stops after n
// operations or, with n == 0, once d has elapsed. next must be safe for
// concurrent use. Transport errors come back as status-0 samples.
func closedLoop(ctx context.Context, c *http.Client, base string, n int, d time.Duration, keep bool, next func(i int) request) []sample {
	var idx atomic.Int64
	perConn := make([][]sample, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(idx.Add(1)) - 1
				sent := time.Now()
				if (n > 0 && i >= n) || (n == 0 && sent.Sub(start) >= d) {
					return
				}
				s, _ := do(ctx, c, base, next(i), keep) // a transport error is the status-0 sample
				now := time.Now()
				s.lat, s.done = now.Sub(sent), now.Sub(start)
				perConn[w] = append(perConn[w], s)
			}
		}()
	}
	wg.Wait()
	return merge(perConn)
}

// openLoop sends operation i at start + i/rate whatever the replies do,
// over conns connections. Latency runs from the due time, so a stall is
// charged to every operation it delays, and the generator's own lateness
// is recorded beside it.
func openLoop(ctx context.Context, c *http.Client, base string, n int, rate float64, next func(i int) request) []sample {
	var idx atomic.Int64
	perConn := make([][]sample, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(idx.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				s, _ := do(ctx, c, base, next(i), false) // a transport error is the status-0 sample
				now := time.Now()
				s.lat, s.late, s.done = now.Sub(due), sent.Sub(due), now.Sub(start)
				perConn[w] = append(perConn[w], s)
			}
		}()
	}
	wg.Wait()
	return merge(perConn)
}

func merge(parts [][]sample) []sample {
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all
}

// cpuSampler reads the daemon's CPU clock at every slice boundary of a
// phase that began at start.
func cpuSampler(ctx context.Context, d *daemon, start time.Time, slice time.Duration, n int) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		marks := make([]float64, 0, n+1)
		for k := 0; k <= n; k++ {
			select {
			case <-ctx.Done():
			case <-time.After(time.Until(start.Add(slice * time.Duration(k)))):
			}
			cpu, _ := d.cpuSeconds() // a vanished daemon fails the run elsewhere
			marks = append(marks, cpu)
		}
		out <- marks
	}()
	return out
}

// sliceStat is what one slice of a phase measured. Every reported figure
// is the median slice's: interference from the host only ever slows a
// slice down, and a median over many short slices ignores the slow ones
// where a mean over the phase would carry them.
type sliceStat struct {
	rate     float64 // successful operations of every kind per second
	cpuMs    float64 // daemon CPU milliseconds per successful operation
	p50, p99 float64 // latency of the successful operations of one kind, ms
	p90      float64 // serve_mix's tail: its p99 is a handful of stalls per slice and does not repeat
	n        int     // how many of that kind
}

// cut divides a stationary phase into n slices of equal length and
// measures each; cpuMarks are the daemon's CPU clock at the n+1
// boundaries.
func cut(samples []sample, kind opKind, cpuMarks []float64, slice time.Duration, n int) []sliceStat {
	ops := make([]int, n)
	lats := make([][]time.Duration, n)
	for _, s := range samples {
		k := int(s.done / slice)
		if k >= n || !s.ok() {
			continue
		}
		ops[k]++
		if s.kind == kind {
			lats[k] = append(lats[k], s.lat)
		}
	}
	out := make([]sliceStat, n)
	for k := range out {
		out[k] = sliceStat{
			rate:  float64(ops[k]) / slice.Seconds(),
			cpuMs: (cpuMarks[k+1] - cpuMarks[k]) * 1000 / float64(ops[k]),
			p50:   percentile(lats[k], 50),
			p99:   percentile(lats[k], 99),
			p90:   percentile(lats[k], 90),
			n:     len(lats[k]),
		}
	}
	return out
}

// medianOf is the median of one figure across slices.
func medianOf(stats []sliceStat, f func(sliceStat) float64) float64 {
	xs := make([]float64, len(stats))
	for i, st := range stats {
		xs[i] = f(st)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile of durations, in ms.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return float64(s[max(k, 0)]) / float64(time.Millisecond)
}
