package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"neutrality/internal/fleet"
	"neutrality/internal/graph"
	"neutrality/internal/grid"
	"neutrality/internal/lab"
	"neutrality/internal/runner"
	"neutrality/internal/sweep"
)

// batch-fleet: the whole batch path — leases, resumable sweep
// partitions, emulation, inference, shard staging, merge commit — over
// a fixed grid, repeated so set-up and makespan have several samples.
// No serve code runs here.
const (
	fleetWorkers = 2 // in-process fleet workers, one sweep worker each
	fleetParts   = 8
	fleetShards  = 2
	fleetPoll    = 20 * time.Millisecond
	fleetProbe   = 6 // traced runs re-emulate every 6th cell to split emu from inference
	fleetResumes = 4 // resumes timed per round; resume_s is the median over all rounds
)

// fleetGrid is topologies a and b under policing, rate × dfrac × reps.
func fleetGrid(seconds int) *grid.Grid {
	g := grid.New("perfbench-fleet", grid.Base{ScaleFactor: 0.05, DurationSec: 30})
	g.Add("topo", grid.Strs("a", "b")...)
	g.Add("diff", grid.Str("police"))
	g.Add("rate", grid.Nums(0.2, 0.3)...)
	g.Add("dfrac", grid.Nums(0.3, 0.5, 0.7)...)
	reps := make([]float64, max(1, 4*seconds/5))
	for i := range reps {
		reps[i] = float64(i)
	}
	g.Add("rep", grid.Nums(reps...)...)
	return g
}

// fleetRounds is how many times a run executes the grid.
const fleetRounds = 4

// fleetTransport wraps the in-process transport: it counts leases,
// re-dispatches and speculative copies, notes each lease's range and
// grant time, accumulates worker idle time (from a refused Acquire to
// the next grant or the end), and on a traced run records every call
// as a span.
type fleetTransport struct {
	inner fleet.Transport
	tr    *tracer

	mu          sync.Mutex
	calls       int64
	errs        int64
	granted     int64
	redispatch  int64
	speculative int64
	idleSince   map[string]time.Time
	idle        time.Duration
	grants      map[int64]grant
}

type grant struct {
	rng grid.Range
	at  time.Time
}

func newFleetTransport(inner fleet.Transport, tr *tracer) *fleetTransport {
	return &fleetTransport{inner: inner, tr: tr, idleSince: map[string]time.Time{}, grants: map[int64]grant{}}
}

func (t *fleetTransport) note(s span, err error) {
	t.tr.end(s)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	if err != nil && !errors.Is(err, fleet.ErrNoWork) && !errors.Is(err, fleet.ErrDone) {
		t.errs++
	}
}

func (t *fleetTransport) Acquire(ctx context.Context, worker string) (*fleet.Assignment, error) {
	s := t.tr.begin("fleet:acquire", 0)
	a, err := t.inner.Acquire(ctx, worker)
	now := time.Now()
	t.note(s, err)
	t.mu.Lock()
	defer t.mu.Unlock()
	if since, ok := t.idleSince[worker]; ok && (err == nil || errors.Is(err, fleet.ErrDone)) {
		t.idle += now.Sub(since)
		delete(t.idleSince, worker)
	}
	switch {
	case err == nil:
		t.granted++
		if a.Attempt > 1 {
			t.redispatch++
		}
		if a.Speculative {
			t.speculative++
		}
		t.grants[a.Lease] = grant{rng: a.Range, at: now}
	case errors.Is(err, fleet.ErrNoWork):
		if _, ok := t.idleSince[worker]; !ok {
			t.idleSince[worker] = now
		}
	}
	return a, err
}

func (t *fleetTransport) Heartbeat(ctx context.Context, lease int64, frontier int) error {
	s := t.tr.begin("fleet:heartbeat", 0)
	err := t.inner.Heartbeat(ctx, lease, frontier)
	t.note(s, err)
	return err
}

func (t *fleetTransport) Complete(ctx context.Context, lease int64, res fleet.WorkerResult) error {
	s := t.tr.begin("fleet:complete", 0)
	err := t.inner.Complete(ctx, lease, res)
	t.note(s, err)
	return err
}

func (t *fleetTransport) Fail(ctx context.Context, lease int64, reason string) error {
	s := t.tr.begin("fleet:fail", 0)
	err := t.inner.Fail(ctx, lease, reason)
	t.note(s, err)
	return err
}

func (t *fleetTransport) Upload(ctx context.Context, lease int64, name, sum string, data []byte) error {
	s := t.tr.begin("fleet:upload", 0)
	err := t.inner.Upload(ctx, lease, name, sum, data)
	t.note(s, err)
	return err
}

// fleetRound is one execution of the grid.
type fleetRound struct {
	res      *fleet.Result
	setup    time.Duration // fleet.New to the first completed cell
	makespan time.Duration // fleet.New to the committed result
	commit   time.Duration
	cells    map[int]time.Duration // per-cell latency within its partition
	cellEnd  map[int]time.Time
	tp       *fleetTransport
	staging  string
}

// runFleet mirrors fleet.RunLocal with the wrapped transport and a
// staging directory, so the commit merges uploaded, hash-verified
// shard copies.
func runFleet(ctx context.Context, g *grid.Grid, seed int64, dir string, tr *tracer) (*fleetRound, error) {
	fr := &fleetRound{cells: map[int]time.Duration{}, cellEnd: map[int]time.Time{}, staging: filepath.Join(dir, "staging")}
	var mu sync.Mutex
	var first time.Time
	t0 := time.Now()
	o, err := fleet.New(g, fleet.Config{Parts: fleetParts, Shards: fleetShards, BaseSeed: seed,
		MaxAttempts: 5, UploadDir: fr.staging})
	if err != nil {
		return nil, err
	}
	tp := newFleetTransport(fleet.Local{O: o}, tr)
	fr.tp = tp
	progress := func(cell int) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		if first.IsZero() {
			first = now
		}
		fr.cellEnd[cell] = now
	}
	var wg sync.WaitGroup
	workErrs := make([]error, fleetWorkers)
	for w := range fleetWorkers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workErrs[w] = fleet.Work(ctx, g, tp, fleet.WorkerOptions{
				ID: fmt.Sprintf("w%d", w), Workers: 1, Dir: filepath.Join(dir, fmt.Sprintf("worker-%d", w)),
				Poll: fleetPoll, Progress: progress,
			})
		}(w)
	}
	waitErr := o.Wait(ctx)
	wg.Wait()
	if waitErr != nil {
		return nil, waitErr
	}
	for w, err := range workErrs {
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
	}
	c0 := time.Now()
	s := tr.begin("fleet:commit", 0)
	fr.res, err = o.Commit(ctx, filepath.Join(dir, "out"))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	fr.commit, fr.makespan, fr.setup = now.Sub(c0), now.Sub(t0), first.Sub(t0)

	// Per-cell latency: the gap since the previous completion in the
	// same lease, or since the grant for a lease's first cell.
	for _, gr := range tp.grants {
		prev := gr.at
		for c := gr.rng.Lo; c < gr.rng.Hi; c++ {
			end, ok := fr.cellEnd[c]
			if !ok || end.Before(prev) {
				continue
			}
			fr.cells[c] = end.Sub(prev)
			tr.record("sweep:cell", 0, prev, end)
			prev = end
		}
	}
	return fr, nil
}

func batchFleet(r *run) error {
	ctx := context.Background()
	g := fleetGrid(r.seconds)
	if err := sweep.Validate(g); err != nil {
		return err
	}
	cells := g.Cells()
	r.logf("batch-fleet: %d cells × %d rounds, %d workers, %d partitions, %d shards", cells, fleetRounds, fleetWorkers, fleetParts, fleetShards)

	var setups, makespans, cellMs, commits, verifies, resumes, heaps []float64
	var totalCells int
	var totalWall time.Duration
	var rounds []*fleetRound
	var idle time.Duration
	for k := range fleetRounds {
		dir := filepath.Join(r.dir, fmt.Sprintf("round-%d", k))
		base := liveHeap()
		fr, err := runFleet(ctx, g, r.seed, dir, r.tr)
		if err != nil {
			return fmt.Errorf("round %d: %w", k, err)
		}
		heaps = append(heaps, (float64(liveHeap())-float64(base))/(1<<20))
		rounds = append(rounds, fr)
		setups = append(setups, seconds(fr.setup))
		makespans = append(makespans, ms(fr.makespan))
		commits = append(commits, ms(fr.commit))
		for _, d := range fr.cells {
			cellMs = append(cellMs, ms(d))
		}
		totalCells += fr.res.Cells
		totalWall += fr.makespan
		idle += fr.tp.idle
		tp := fr.tp
		r.attempted += tp.calls + int64(fr.res.Cells)
		r.failed += tp.errs + tp.redispatch + tp.speculative
		r.layer["fail.redispatches"] += float64(tp.redispatch)
		r.layer["fail.speculative"] += float64(tp.speculative)
		r.layer["fleet.dispatch_ratio"] += float64(fleetParts) / float64(tp.granted) / fleetRounds

		r.check(!fr.res.Degraded, "round %d: commit degraded: %v", k, fr.res.Reason)
		r.check(fr.res.Cells == cells && fr.res.Agg.Cells() == cells, "round %d: committed %d cells, want %d", k, fr.res.Agg.Cells(), cells)
		out := filepath.Join(dir, "out")
		v0 := time.Now()
		s := r.tr.begin("sweep:verify", 0)
		rep, err := sweep.Verify(g, out)
		r.tr.end(s)
		if err != nil {
			return fmt.Errorf("round %d verify: %w", k, err)
		}
		verifies = append(verifies, ms(time.Since(v0)))
		r.check(rep.Clean, "round %d: verify found damage in cells %v", k, rep.Quarantine)

		// Resume: a restarted sweep over the committed directory replays
		// every record and serves the same summary.
		for range fleetResumes {
			t0 := time.Now()
			s = r.tr.begin("sweep:resume", 0)
			res, err := sweep.Run(ctx, g, sweep.Options{Workers: 1, Shards: fleetShards, BaseSeed: r.seed, Dir: out, Resume: true})
			r.tr.end(s)
			if err != nil {
				return fmt.Errorf("round %d resume: %w", k, err)
			}
			resumes = append(resumes, ms(time.Since(t0)))
			r.check(res.Resumed == cells && res.Agg.Summary() == fr.res.Summary,
				"round %d: resume restored %d of %d cells, summary equal: %v", k, res.Resumed, cells, res.Agg.Summary() == fr.res.Summary)
		}
		if k > 0 {
			r.check(fr.res.Summary == rounds[0].res.Summary, "round %d summary differs from round 0", k)
		}
		if r.tr == nil && k > 0 {
			os.RemoveAll(dir)
		}
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["throughput_per_s"] = float64(totalCells) / totalWall.Seconds()
	tails(r, cellMs, nil, nil)
	r.e2e["verdict_p50_ms"] = median(makespans)
	r.layer["bench.resume_ms"] = median(resumes)
	r.e2e["heap_mb"] = median(heaps)
	r.logf("makespans %v ms, %d cell latencies", makespans, len(cellMs))

	// Relational check: an untimed in-memory sweep of the same grid
	// produces the same summary.
	var refRecs []sweep.Record
	ref, err := sweep.Run(ctx, g, sweep.Options{Workers: fleetWorkers, Shards: fleetShards, BaseSeed: r.seed,
		OnRecord: func(rec sweep.Record) { refRecs = append(refRecs, rec) }})
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	summary := rounds[0].res.Summary
	if r.tamper {
		summary = string(tamperVerdict([]byte(summary)))
	}
	r.check(summary == ref.Agg.Summary(), "fleet summary differs from the in-memory sweep:\n%s\n%s", summary, ref.Agg.Summary())

	if r.tr != nil {
		r.layer["sweep.cell_ms"] = mean(cellMs)
		r.layer["sweep.verify_ms"] = median(verifies)
		r.layer["fleet.commit_ms"] = median(commits)
		r.layer["fleet.idle_ms"] = ms(idle) / fleetRounds
		last := rounds[len(rounds)-1]
		out := filepath.Join(r.dir, fmt.Sprintf("round-%d", fleetRounds-1), "out")
		r.layer["sweep.shard_bytes_per_cell"] = float64(dirBytes(out, "shard-*.jsonl")) / float64(cells)
		var events float64
		for _, rec := range refRecs {
			events += float64(rec.Events)
		}
		r.layer["emu.events_per_cell"] = events / float64(len(refRecs))
		r.layer["trace.throughput_per_s"] = r.e2e["throughput_per_s"]

		parts, _ := filepath.Glob(filepath.Join(last.staging, "part-*"))
		sort.Strings(parts)
		m0 := time.Now()
		s := r.tr.begin("sweep:merge", 0)
		if _, err := sweep.Merge(g, parts, filepath.Join(r.dir, "merge-probe")); err != nil {
			return fmt.Errorf("merge probe: %w", err)
		}
		r.tr.end(s)
		r.layer["sweep.merge_ms"] = ms(time.Since(m0))
		if err := fleetLayers(r, g, refRecs, last); err != nil {
			return err
		}
	}
	return nil
}

// fleetLayers re-runs every fleetProbe-th cell outside the sweep —
// the same experiment the sweep materializes — timing the emulation
// and the traced inference separately, checks each probe against the
// sweep's record of that cell, and splits every cell span of the last
// round into emu, measure and core by the probes' proportions of the
// same cells' fleet latency.
func fleetLayers(r *run, g *grid.Grid, refRecs []sweep.Record, last *fleetRound) error {
	var emuT, normT, inferT, fleetT time.Duration
	var events uint64
	for _, rec := range refRecs {
		if rec.Cell%fleetProbe != 0 {
			continue
		}
		exp, net, err := cellExperiment(g, rec.Cell, runner.Seed(r.seed, rec.Cell))
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := lab.Run(exp)
		if err != nil {
			return err
		}
		emuT += time.Since(t0)
		events += res.Sim.Processed
		split := probeInfer(net, res.Meas)
		normT += split.normalize + split.lookup
		inferT += split.total
		fleetT += last.cells[rec.Cell]
		unsolv := 0.0
		for _, v := range split.res.Candidates {
			unsolv = max(unsolv, v.Unsolvability)
		}
		r.check(res.Sim.Processed == rec.Events && split.res.NetworkNonNeutral() == rec.Verdict && unsolv == rec.Unsolvability,
			"probe of cell %d disagrees with its sweep record (events %d vs %d)", rec.Cell, res.Sim.Processed, rec.Events)
	}
	r.layer["emu.events_per_s"] = float64(events) / emuT.Seconds()
	fracs := []struct {
		name string
		f    float64
	}{
		{"emu:run", ratio(float64(emuT), float64(fleetT))},
		{"measure:infer", ratio(float64(normT), float64(fleetT))},
		{"core:infer", ratio(float64(inferT-normT), float64(fleetT))},
	}
	r.logf("probe: emu %.1f%%, measure %.1f%%, core %.1f%% of sampled cell latency",
		100*fracs[0].f, 100*fracs[1].f, 100*fracs[2].f)
	for _, s := range r.tr.snapshot() {
		if s.Name != "sweep:cell" {
			continue
		}
		at := s.Start
		for _, fr := range fracs {
			d := time.Duration(float64(s.dur()) * fr.f)
			r.tr.place(fr.name, s, at, d)
			at += int64(d)
		}
	}
	shares(r)
	return nil
}

// cellExperiment materializes one cell of the benchmark grid the way
// the sweep does (topology, policing rate, class mix, derived seed).
func cellExperiment(g *grid.Grid, i int, seed int64) (*lab.Experiment, *graph.Network, error) {
	c := g.Cell(i)
	topoV, _ := c.Lookup("topo")
	rate, _ := c.Lookup("rate")
	dfrac, _ := c.Lookup("dfrac")
	name := fmt.Sprintf("%s/cell%d", g.Name, i)
	switch topoV.Str {
	case "a":
		p := lab.DefaultParamsA().Scale(g.Base.ScaleFactor, g.Base.DurationSec)
		p.MeanFlowMb[0] *= 2 * (1 - dfrac.Num)
		p.MeanFlowMb[1] *= 2 * dfrac.Num
		p.Diff = lab.PoliceClass2(rate.Num)
		p.Seed = seed
		e, a := p.Experiment(name)
		return e, a.Net, nil
	case "b":
		p := lab.DefaultParamsB().Scale(g.Base.ScaleFactor, g.Base.DurationSec)
		p.PoliceRate = rate.Num
		p.LightSizesMb = scaleAll(p.LightSizesMb, 2*dfrac.Num)
		p.DarkSizesMb = scaleAll(p.DarkSizesMb, 2*(1-dfrac.Num))
		p.WhiteSizesMb = scaleAll(p.WhiteSizesMb, 2*(1-dfrac.Num))
		p.Seed = seed
		e, b := p.Experiment(name)
		return e, b.InferenceNet, nil
	}
	return nil, nil, fmt.Errorf("cell %d: topology %q", i, topoV.Str)
}

func scaleAll(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}
