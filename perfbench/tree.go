package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"neutrality/internal/graph"
	"neutrality/internal/serve"
)

// tree-ingest: two leaves and a durable root over loopback HTTP, one
// closed-loop sender per leaf. Many sources over Figure 4's four paths
// make epochs of tens of thousands of records on a slowly growing
// table, so the ingest path — HTTP decode, validate/dedup, journal,
// ship, root fold — dominates and inference is a minority.
const (
	treeLeaves       = 2
	treeVPs          = 256   // sources per leaf; each reports all 4 paths per interval
	treePerVP        = 4     // packets per source, path and interval
	treeEpochRecords = 16384 // per leaf: 16 intervals per epoch
	treeBatch        = 128   // records per POST
	treeShards       = 4     // journal shards per leaf
	treeResend       = 0.1   // share of batches re-sent once after their ack
	treeSetups       = 9
	treeRestarts     = 9
	shipBackoff      = 10 * time.Millisecond
	treeReadPace     = 2 * time.Millisecond // tree epochs are fresh within ~15 ms
)

// treeEpochs sizes the run: 96 tree epochs at the default 20 s.
func treeEpochs(seconds int) int { return max(4, 96*seconds/20) }

// tree is one running leaf/root topology.
type tree struct {
	root     *serve.Root
	rootSrv  *httptest.Server
	leaves   []*serve.Service
	leafSrvs []*httptest.Server
	ship     []*countingTransport
	cancel   context.CancelFunc
	shipWG   sync.WaitGroup
	shipErrs []error
}

func leafName(i int) string { return fmt.Sprintf("leaf-%d", i) }

func treeLeafConfig(n *graph.Network, dir string, i int) serve.Config {
	return serve.Config{Net: n, NetName: "figure4", EpochRecords: treeEpochRecords, Dir: dir,
		JournalShards: treeShards, Leaf: leafName(i), CheckpointEvery: checkpointEvery}
}

func startTree(n *graph.Network, dir string, tr *tracer) (*tree, error) {
	t := &tree{}
	root, err := serve.NewRoot(serve.RootConfig{Net: n, NetName: "figure4", Leaves: treeLeaves, Dir: filepath.Join(dir, "root")})
	if err != nil {
		return nil, err
	}
	t.root = root
	t.rootSrv = httptest.NewServer(wrapHandler(tr, serve.NewRootServer(root), func(q *http.Request) string {
		if q.Method == http.MethodPost {
			return "serve.root:deliver"
		}
		return "serve.root:read"
	}))
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	t.shipErrs = make([]error, treeLeaves)
	for i := range treeLeaves {
		svc, err := serve.New(treeLeafConfig(n, filepath.Join(dir, leafName(i)), i))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.leaves = append(t.leaves, svc)
		t.leafSrvs = append(t.leafSrvs, httptest.NewServer(wrapHandler(tr, serve.NewServer(svc), func(q *http.Request) string {
			if q.Method == http.MethodPost {
				return "serve:ingest"
			}
			return "serve:read"
		})))
		ct := &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}, tr: tr, name: "serve.ship:post"}
		t.ship = append(t.ship, ct)
		sh := &serve.Shipper{S: svc, URL: t.rootSrv.URL, Client: &http.Client{Transport: ct, Timeout: 30 * time.Second}, Backoff: shipBackoff}
		t.shipWG.Add(1)
		go func(i int) {
			defer t.shipWG.Done()
			t.shipErrs[i] = sh.Run(ctx)
		}(i)
	}
	return t, nil
}

// stop ends the shippers and the servers; it leaves the services and
// the root open (a kill), for the caller to close or abandon.
func (t *tree) stop() error {
	t.cancel()
	t.shipWG.Wait()
	for _, s := range t.leafSrvs {
		s.Close()
	}
	t.rootSrv.Close()
	for i, err := range t.shipErrs {
		if err != nil {
			return fmt.Errorf("shipper %d: %w", i, err)
		}
	}
	return nil
}

func (t *tree) close() error {
	for _, svc := range t.leaves {
		if err := svc.Close(); err != nil {
			return err
		}
	}
	return t.root.Close()
}

func treeIngest(r *run) error {
	epochs := treeEpochs(r.seconds)
	intervals := epochs * treeEpochRecords / (treeVPs * 4)
	n, policers, streams := figure4Streams(r.seed, treeLeaves, intervals, treeVPs, treePerVP)
	bodies := make([][][]byte, treeLeaves)
	for i, s := range streams {
		if len(s) != epochs*treeEpochRecords {
			return fmt.Errorf("leaf %d: generated %d records, want %d", i, len(s), epochs*treeEpochRecords)
		}
		bodies[i] = encodeBatches(s, treeBatch)
	}
	// The re-send schedule is part of the input: drawn from the seed.
	rng := rand.New(rand.NewSource(r.seed ^ 0x7e5e))
	resend := make([][]bool, treeLeaves)
	for i := range resend {
		resend[i] = make([]bool, len(bodies[i]))
		for b := range resend[i] {
			resend[i][b] = rng.Float64() < treeResend
		}
	}
	r.logf("tree-ingest: %d leaves, %d tree epochs, %d intervals, %d records per leaf in %d batches",
		treeLeaves, epochs, intervals, len(streams[0]), len(bodies[0]))

	client := newClient()
	var setups []float64
	for i := range treeSetups {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		t, err := startTree(n, dir, nil)
		if err != nil {
			return err
		}
		c, err := do(client, nil, "", http.MethodPost, t.leafSrvs[0].URL+"/v1/ingest", bodies[0][0])
		if err != nil {
			return err
		}
		setups = append(setups, seconds(time.Since(t0)))
		r.check(c.status == http.StatusOK, "setup %d: first batch got HTTP %d", i, c.status)
		client.CloseIdleConnections()
		if err := t.stop(); err != nil {
			return err
		}
		if err := t.close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}
	r.e2e["setup_s"] = median(setups)

	base := liveHeap()
	dir := filepath.Join(r.dir, "tree")
	t, err := startTree(n, dir, r.tr)
	if err != nil {
		return err
	}
	rd := newReader(newClient(), r.tr, t.rootSrv.URL+"/v1/verdict", "", treeReadPace)
	stop := make(chan struct{})
	go rd.run(stop, func() int { return epochs })

	type senderOut struct {
		acks              samples
		sent              map[int]time.Time
		accepted, dups    int
		injected          int
		attempted, failed int64
		non2xx, busy      int64
		closeSpans        []int64
		inferMs           []float64
		err               error
	}
	outs := make([]senderOut, treeLeaves)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range treeLeaves {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			o.sent = map[int]time.Time{}
			c := newClient()
			url := t.leafSrvs[i].URL + "/v1/ingest"
			post := func(name string, b int) (serve.IngestResult, bool) {
				var res serve.IngestResult
				resp, err := do(c, r.tr, name, http.MethodPost, url, bodies[i][b])
				o.attempted++
				if err != nil {
					o.failed++
					o.err = err
					return res, false
				}
				if resp.status != http.StatusOK {
					o.failed++
					o.non2xx++
					if resp.status == http.StatusTooManyRequests {
						o.busy++
					}
					return res, true
				}
				o.acks.add(resp.rtt)
				if err := json.Unmarshal(resp.body, &res); err != nil {
					o.err = err
					return res, false
				}
				if name == "bench:post" && (b+1)*treeBatch%treeEpochRecords == 0 && r.tr != nil {
					o.inferMs = append(o.inferMs, t.leaves[i].Status().LastInferMillis)
					o.closeSpans = append(o.closeSpans, resp.span.ID)
				}
				return res, true
			}
			for b := range bodies[i] {
				if (b+1)*treeBatch%treeEpochRecords == 0 {
					o.sent[(b+1)*treeBatch/treeEpochRecords] = time.Now()
				}
				res, ok := post("bench:post", b)
				if !ok {
					return
				}
				o.accepted += res.Accepted
				if resend[i][b] {
					o.injected += len(streams[i][b*treeBatch : min((b+1)*treeBatch, len(streams[i]))])
					res, ok := post("bench:resend", b)
					if !ok {
						return
					}
					o.dups += res.Duplicates
				}
			}
		}(i)
	}
	wg.Wait()
	ingestWall := time.Since(start)
	close(stop)
	<-rd.done
	r.attempted += rd.gets
	r.failed += rd.failed

	var acks samples
	sent := map[int]time.Time{}
	accepted := 0
	var closeSpans []int64
	var inferMs []float64
	for i, o := range outs {
		if o.err != nil {
			t.stop()
			return fmt.Errorf("leaf %d sender: %w", i, o.err)
		}
		r.attempted += o.attempted
		r.failed += o.failed
		r.layer["fail.http_non2xx"] += float64(o.non2xx)
		r.layer["fail.http_429"] += float64(o.busy)
		acks = append(acks, o.acks...)
		accepted += o.accepted
		for k, ts := range o.sent {
			if ts.After(sent[k]) {
				sent[k] = ts
			}
		}
		closeSpans = append(closeSpans, o.closeSpans...)
		inferMs = append(inferMs, o.inferMs...)
		st := t.leaves[i].Status()
		r.check(int(st.Duplicates) == o.injected && o.dups == o.injected,
			"leaf %d: %d duplicates counted (%d acked as duplicates), %d injected", i, st.Duplicates, o.dups, o.injected)
		r.check(st.Epochs == epochs && st.Records == int64(len(streams[i])),
			"leaf %d closed %d epochs over %d records, want %d over %d", i, st.Epochs, st.Records, epochs, len(streams[i]))
	}
	r.e2e["throughput_per_s"] = float64(accepted) / ingestWall.Seconds()
	fresh := rd.freshness(sent, epochs)
	r.check(len(fresh) == epochs, "freshness measured for %d of %d tree epochs", len(fresh), epochs)
	r.e2e["verdict_p50_ms"] = median(fresh)
	tails(r, acks, fresh, rd.reads)
	r.e2e["heap_mb"] = (float64(liveHeap()) - float64(base)) / (1 << 20)
	runtime.KeepAlive(bodies)
	r.logf("ingest %.2fs, %d acks, %d reads, ack p99 %.2f ms", ingestWall.Seconds(), len(acks), len(rd.reads), quantile(acks, 0.99))

	preKill, err := do(client, nil, "", http.MethodGet, t.rootSrv.URL+"/v1/verdict", nil)
	if err != nil {
		return err
	}
	rootStatus := t.root.Status()
	r.check(rootStatus.Epochs == epochs && rootStatus.Gaps == 0 && rootStatus.RejectsValidation == 0,
		"root status %+v, want %d epochs, no gaps or rejects", rootStatus, epochs)
	if err := t.stop(); err != nil {
		return err
	}
	var shipAttempts, shipFailed int64
	for _, ct := range t.ship {
		shipAttempts += ct.attempts.Load()
		shipFailed += ct.failed.Load()
	}
	r.attempted += shipAttempts
	r.failed += shipFailed
	r.layer["fail.ship_retries"] = float64(shipFailed)
	rootLogBytes := dirBytes(filepath.Join(dir, "root"), "root.jsonl")
	var journalBytes int64
	for i := range treeLeaves {
		journalBytes += dirBytes(filepath.Join(dir, leafName(i)), "journal-*.jsonl")
	}

	// Kill the root and time restarts from its report log until the
	// first GET serves the pre-kill tree verdict.
	client.CloseIdleConnections()
	var resumes, newMs []float64
	for i := range treeRestarts {
		t0 := time.Now()
		root, err := serve.NewRoot(serve.RootConfig{Net: n, NetName: "figure4", Leaves: treeLeaves,
			Dir: filepath.Join(dir, "root"), Resume: true})
		if err != nil {
			return fmt.Errorf("root restart %d: %w", i, err)
		}
		newMs = append(newMs, ms(time.Since(t0)))
		srv := httptest.NewServer(serve.NewRootServer(root))
		c, err := do(client, nil, "", http.MethodGet, srv.URL+"/v1/verdict", nil)
		if err != nil {
			return err
		}
		resumes = append(resumes, ms(time.Since(t0)))
		r.check(bytes.Equal(c.body, preKill.body), "root restart %d serves a different verdict", i)
		srv.Close()
		client.CloseIdleConnections()
	}
	r.layer["bench.resume_ms"] = median(resumes)

	// Relational check: one in-memory service ingesting the union,
	// closing at the tree's epoch boundaries, serves the same bytes.
	union, err := serve.New(serve.Config{Net: n, EpochRecords: 0})
	if err != nil {
		return err
	}
	for k := range epochs {
		for i := range treeLeaves {
			if _, err := union.Ingest(streams[i][k*treeEpochRecords : (k+1)*treeEpochRecords]); err != nil {
				return err
			}
		}
		if _, err := union.CloseEpoch(); err != nil {
			return err
		}
	}
	served := bytes.TrimSuffix(preKill.body, []byte("\n"))
	if r.tamper {
		served = tamperVerdict(served)
	}
	r.check(bytes.Equal(served, union.VerdictJSON()), "root verdict differs from the union service:\n%s\n%s", served, union.VerdictJSON())
	r.check(policersFlagged(served, policers) == nil, "planted policer: %v", policersFlagged(served, policers))

	if r.tr != nil {
		meas, err := union.Measurements()
		if err != nil {
			return err
		}
		split := probeInfer(n, meas)
		split.report(r)
		cfg := treeLeafConfig(n, filepath.Join(r.dir, "probe"), 0)
		fresh, dup, _, err := ingestProbe(cfg, streams[0], treeBatch)
		if err != nil {
			return err
		}
		r.layer["serve.ingest_us_per_rec"] = fresh
		r.layer["serve.dup_us_per_rec"] = dup
		r.layer["serve.journal_bytes_per_rec"] = float64(journalBytes) / float64(accepted)
		r.layer["serve.resume_ms"] = median(newMs)
		r.layer["serve.root.log_bytes_per_report"] = float64(rootLogBytes) / float64(epochs*treeLeaves)
		r.layer["serve.ship_ok_ratio"] = ratio(float64(shipAttempts-shipFailed), float64(shipAttempts))
		ship, nShip := r.tr.total("serve.ship:post")
		r.layer["serve.ship_ms"] = ratio(ms(ship), float64(nShip))
		deliver, nDeliver := r.tr.total("serve.root:deliver")
		r.layer["serve.root.deliver_ms"] = ratio(ms(deliver), float64(nDeliver))
		r.layer["trace.throughput_per_s"] = r.e2e["throughput_per_s"]
		streamLayers(r, closeSpans, inferMs, split, treeBatch)
	}
	return t.close()
}
