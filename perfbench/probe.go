package main

import (
	"os"
	"path/filepath"
	"time"

	"neutrality/internal/core"
	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/nslice"
	"neutrality/internal/serve"
)

// timedObserver wraps core.MeasurementObserver: time in Y is Algorithm
// 2's normalization of one slice; the returned lookup is timed and
// counted separately (pathset performance over the normalized rows).
type timedObserver struct {
	inner   core.MeasurementObserver
	y       time.Duration
	lookup  time.Duration
	lookups int64
	slices  int
}

func (o *timedObserver) Y(s *nslice.Slice) func(graph.Pathset) float64 {
	t0 := time.Now()
	f := o.inner.Y(s)
	o.y += time.Since(t0)
	o.slices++
	return func(ps graph.Pathset) float64 {
		t := time.Now()
		v := f(ps)
		o.lookup += time.Since(t)
		o.lookups++
		return v
	}
}

// inferSplit is one traced core.Infer over a table.
type inferSplit struct {
	total, normalize, lookup time.Duration
	lookups                  int64
	slices, intervals        int
	res                      *core.Result
}

// probeInfer runs core.Infer through the timing observer.
func probeInfer(n *graph.Network, meas *measure.Measurements) inferSplit {
	obs := &timedObserver{inner: core.MeasurementObserver{Meas: meas, Opts: measure.DefaultOptions()}}
	t0 := time.Now()
	res := core.Infer(n, obs, core.DefaultConfig())
	return inferSplit{
		total: time.Since(t0), normalize: obs.y, lookup: obs.lookup, lookups: obs.lookups,
		slices: obs.slices, intervals: meas.Intervals(), res: res,
	}
}

// measureShare is the part of inference time spent in Algorithm 2
// (normalization plus pathset lookups).
func (s inferSplit) measureShare() float64 {
	return ratio(float64(s.normalize+s.lookup), float64(s.total))
}

func (s inferSplit) report(r *run) {
	r.layer["measure.normalize_ms"] = ms(s.normalize)
	r.layer["measure.lookup_ms"] = ms(s.lookup)
	r.layer["measure.normalize_us_per_interval"] = ratio(float64(s.normalize)/1e3, float64(s.intervals*s.slices))
	r.layer["core.algo1_ms"] = ms(s.total - s.normalize)
	r.layer["core.lookups"] = float64(s.lookups)
	r.logf("infer probe: %d intervals, %d slices: total %.1f ms, normalize %.1f ms, lookups %d in %.1f ms",
		s.intervals, s.slices, ms(s.total), ms(s.normalize), s.lookups, ms(s.lookup))
}

// ingestProbe times direct Service.Ingest calls on a fresh service
// with cfg: first batches that close no epoch, then the same batches
// re-sent (all duplicates). It returns µs per record for both and the
// journal bytes written per record.
func ingestProbe(cfg serve.Config, recs []measure.StreamRecord, batch int) (fresh, dup, journalPerRec float64, err error) {
	svc, err := serve.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	n := len(recs)
	if cfg.EpochRecords > 0 {
		n = min(n, cfg.EpochRecords-1)
	}
	recs = recs[:n]
	var tFresh, tDup time.Duration
	for lo := 0; lo < n; lo += batch {
		b := recs[lo:min(lo+batch, n)]
		t0 := time.Now()
		if _, err := svc.Ingest(b); err != nil {
			return 0, 0, 0, err
		}
		tFresh += time.Since(t0)
	}
	for lo := 0; lo < n; lo += batch {
		b := recs[lo:min(lo+batch, n)]
		t0 := time.Now()
		if _, err := svc.Ingest(b); err != nil {
			return 0, 0, 0, err
		}
		tDup += time.Since(t0)
	}
	if err := svc.Close(); err != nil {
		return 0, 0, 0, err
	}
	jb := dirBytes(cfg.Dir, "journal-*.jsonl")
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(n) }
	return us(tFresh), us(tDup), float64(jb) / float64(n), nil
}

// dirBytes sums the sizes of the files in dir matching pattern.
func dirBytes(dir, pattern string) int64 {
	files, _ := filepath.Glob(filepath.Join(dir, pattern))
	var total int64
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	return total
}

// streamLayers derives the serve-layer metrics of a traced streaming
// run from its spans: per-record time in ServeHTTP for first sends
// that close no epoch, the extra time of a closing batch and the part of it
// the service reports as inference. The inference spans are split into
// measure and core by the traced core.Infer probe's proportions.
func streamLayers(r *run, closeSpans []int64, inferMs []float64, split inferSplit, batch int) {
	spans := r.tr.snapshot()
	byParent := map[int64]span{}
	clientName := map[int64]string{}
	for _, s := range spans {
		switch s.Name {
		case "serve:ingest":
			byParent[s.Parent] = s
		case "bench:post", "bench:resend":
			clientName[s.ID] = s.Name
		}
	}
	closing := map[int64]bool{}
	for _, id := range closeSpans {
		closing[id] = true
	}
	var plain []float64
	var reads []float64
	for _, s := range spans {
		switch {
		case s.Name == "serve:ingest" && !closing[s.Parent] && clientName[s.Parent] == "bench:post":
			plain = append(plain, float64(s.dur())/1e3/float64(batch))
		case s.Name == "serve:read" || s.Name == "serve.root:read":
			reads = append(reads, float64(s.dur())/1e3)
		}
	}
	plainMs := median(plain) * float64(batch) / 1e3
	var closeSum, inferSum float64
	for i, id := range closeSpans {
		srv, ok := byParent[id]
		if !ok {
			continue
		}
		closeSum += ms(srv.dur()) - plainMs
		inferSum += inferMs[i]
		d := time.Duration(inferMs[i] * float64(time.Millisecond))
		inf := r.tr.derive("core:infer", srv, d)
		r.tr.derive("measure:infer", inf, time.Duration(float64(d)*split.measureShare()))
	}
	n := float64(len(closeSpans))
	r.layer["serve.http.ingest_us_per_rec"] = median(plain)
	r.layer["serve.read_us"] = median(reads)
	r.layer["serve.close_ms"] = ratio(closeSum, n)
	r.layer["serve.infer_ms"] = ratio(inferSum, n)
	r.layer["serve.close_other_ms"] = ratio(closeSum-inferSum, n)
	shares(r)
}
