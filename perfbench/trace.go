package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the client span's ID to the server handler, so
// the server-side span of one request names the span that caused it.
const spanHeader = "X-Perfbench-Span"

// span is one timed call at a layer boundary. Name is "layer:operation";
// the layer part groups self time into the per-layer shares. Derived
// spans are placed from a duration the program reports (for example
// Status.last_infer_ms) rather than timed by the benchmark.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, ':'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run. A nil tracer is the
// untraced run: every method is a no-op, so the measured code path
// pays one nil check per call site.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.next.Add(1), Parent: parent, Name: name, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// derive records a child span of parent covering the last d of it.
func (t *tracer) derive(name string, parent span, d time.Duration) span {
	d = min(d, parent.dur())
	return t.place(name, parent, parent.End-int64(d), d)
}

// place records a derived child span of parent from start (ns since
// the tracer began) lasting d.
func (t *tracer) place(name string, parent span, start int64, d time.Duration) span {
	if t == nil || parent.ID == 0 {
		return span{}
	}
	s := span{ID: t.next.Add(1), Parent: parent.ID, Name: name, Start: start, End: start + int64(d), Derived: true}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// record adds a span timed by the caller.
func (t *tracer) record(name string, parent int64, start, end time.Time) span {
	if t == nil {
		return span{}
	}
	s := span{ID: t.next.Add(1), Parent: parent, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.snapshot() {
		if s.Name == name {
			d += s.dur()
			n++
		}
	}
	return d, n
}

// selfTimes returns each layer's self time: a span's duration minus
// the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	spans := t.snapshot()
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
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

// tracedHandler times a handler's ServeHTTP as a span whose parent is
// the client span named in the request header.
type tracedHandler struct {
	tr   *tracer
	name func(*http.Request) string
	h    http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	s := h.tr.begin(h.name(r), parent)
	h.h.ServeHTTP(w, r)
	h.tr.end(s)
}

// wrapHandler returns h itself on an untraced run.
func wrapHandler(tr *tracer, h http.Handler, name func(*http.Request) string) http.Handler {
	if tr == nil {
		return h
	}
	return tracedHandler{tr: tr, name: name, h: h}
}

// countingTransport counts round trips and failed ones (transport
// errors and non-2xx replies) and, on a traced run, records each as a
// span that the server side links to through spanHeader.
type countingTransport struct {
	base     http.RoundTripper
	tr       *tracer
	name     string
	attempts atomic.Int64
	failed   atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.attempts.Add(1)
	s := c.tr.begin(c.name, 0)
	if s.ID != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	}
	resp, err := c.base.RoundTrip(r)
	c.tr.end(s)
	if err != nil || resp.StatusCode/100 != 2 {
		c.failed.Add(1)
	}
	return resp, err
}

func layerReport(w io.Writer, self map[string]time.Duration) {
	var total time.Duration
	names := make([]string, 0, len(self))
	for k, v := range self {
		total += v
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, k := range names {
		fmt.Fprintf(w, "  %-12s %10.1f ms  %5.1f%%\n", k, ms(self[k]), 100*ratio(float64(self[k]), float64(total)))
	}
}

// shares reports every layer's self time as a percentage of the
// traced busy time of the run.
func shares(r *run) {
	self := r.tr.selfTimes()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for name := range layerUnits {
		if layer, ok := strings.CutPrefix(name, "share."); ok {
			r.layer[name] = 100 * ratio(float64(self[layer]), float64(total))
		}
	}
	r.logf("layer self time:")
	layerReport(r.log, self)
}
