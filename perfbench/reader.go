package main

import (
	"net/http"
	"sync"
	"time"
)

// reader is the paced verdict reader of the streaming workloads: every
// pace it GETs the verdict (and the status, when statusURL is set),
// times each GET, and notes when each epoch's verdict first appears —
// the far end of the freshness measurement.
type reader struct {
	c          *http.Client
	tr         *tracer
	verdictURL string
	statusURL  string
	pace       time.Duration

	mu       sync.Mutex
	reads    samples
	seen     map[int]time.Time // epoch -> end of the first GET showing it
	maxEpoch int
	gets     int64
	failed   int64
	done     chan struct{}
}

func newReader(c *http.Client, tr *tracer, verdictURL, statusURL string, pace time.Duration) *reader {
	return &reader{c: c, tr: tr, verdictURL: verdictURL, statusURL: statusURL, pace: pace,
		seen: map[int]time.Time{}, done: make(chan struct{})}
}

// run polls until stop is closed and the reader has seen epoch
// final(), whichever is later, but for at most catchUp after stop (a
// verdict that never arrives then shows as a failed freshness check,
// not a hung run); it closes rd.done on return.
func (rd *reader) run(stop <-chan struct{}, final func() int) {
	const catchUp = 30 * time.Second
	defer close(rd.done)
	tick := time.NewTicker(rd.pace)
	defer tick.Stop()
	var stopped time.Time
	for {
		select {
		case <-stop:
			stopped = time.Now()
			stop = nil
		case <-tick.C:
		}
		rd.poll()
		if !stopped.IsZero() {
			rd.mu.Lock()
			caught := rd.maxEpoch >= final()
			rd.mu.Unlock()
			if caught || time.Since(stopped) > catchUp {
				return
			}
		}
	}
}

func (rd *reader) poll() {
	v, verr := do(rd.c, rd.tr, "bench:read", http.MethodGet, rd.verdictURL, nil)
	var st call
	var serr error
	if rd.statusURL != "" {
		st, serr = do(rd.c, rd.tr, "bench:read", http.MethodGet, rd.statusURL, nil)
	}
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if rd.statusURL != "" {
		rd.count(st, serr)
	}
	if !rd.count(v, verr) {
		return
	}
	e, err := verdictEpoch(v.body)
	if err != nil {
		rd.failed++
		return
	}
	now := v.start.Add(v.rtt)
	for k := rd.maxEpoch + 1; k <= e; k++ {
		rd.seen[k] = now
	}
	rd.maxEpoch = max(rd.maxEpoch, e)
}

// count tallies one GET; it reports whether the GET succeeded.
func (rd *reader) count(c call, err error) bool {
	rd.gets++
	if err != nil || c.status != http.StatusOK {
		rd.failed++
		return false
	}
	rd.reads.add(c.rtt)
	return true
}

// freshness returns, per epoch k in 1..n, the time from sent[k] to the
// first GET that showed a verdict for epoch >= k, in ms.
func (rd *reader) freshness(sent map[int]time.Time, n int) []float64 {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	var out []float64
	for k := 1; k <= n; k++ {
		s, ok1 := sent[k]
		g, ok2 := rd.seen[k]
		if ok1 && ok2 {
			out = append(out, ms(g.Sub(s)))
		}
	}
	return out
}
