package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"neutrality/internal/serve"
)

// leaf-history: one leaf, one HTTP sender, one paced reader, over a
// history long enough that every epoch close re-running Algorithms 2
// and 1 over the whole table dominates the run.
const (
	leafVPs          = 32   // vantage points; each reports all 16 paths per interval
	leafPerVP        = 20   // packets per vantage point, path and interval
	leafEpochRecords = 4096 // the service default: 8 intervals per epoch
	leafBatch        = 128  // records per POST: one ack in 32 carries a close
	leafCompactEvery = 16   // epochs between snapshot+truncate compactions
	checkpointEvery  = 4096 // journal lines between manifest rewrites (see README)
	leafSetups       = 15   // set-ups timed per run; setup_s is their median
	leafRestarts     = 15   // restarts timed per run; resume_s is their median
	readPace         = 10 * time.Millisecond
)

// leafEpochs sizes the history: 128 epochs at the default 20 s.
func leafEpochs(seconds int) int { return max(8, 128*seconds/20) }

func leafConfig(st stream, dir string) serve.Config {
	return serve.Config{Net: st.net, NetName: "topology-b", EpochRecords: leafEpochRecords,
		Dir: dir, CompactEvery: leafCompactEvery, CheckpointEvery: checkpointEvery}
}

func leafHistory(r *run) error {
	epochs := leafEpochs(r.seconds)
	intervals := epochs * leafEpochRecords / (leafVPs * 16)
	st := backboneStream(r.seed, intervals, leafVPs, leafPerVP)
	if len(st.recs) != epochs*leafEpochRecords {
		return fmt.Errorf("generated %d records, want %d", len(st.recs), epochs*leafEpochRecords)
	}
	bodies := encodeBatches(st.recs, leafBatch)
	client := newClient()
	r.logf("leaf-history: %d epochs, %d intervals, %d records in %d batches", epochs, intervals, len(st.recs), len(bodies))

	// Set-up: constructor to first acked batch, on fresh directories.
	var setups []float64
	for i := range leafSetups {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		svc, err := serve.New(leafConfig(st, dir))
		if err != nil {
			return err
		}
		srv := httptest.NewServer(serve.NewServer(svc))
		c, err := do(client, nil, "", http.MethodPost, srv.URL+"/v1/ingest", bodies[0])
		if err != nil {
			return err
		}
		setups = append(setups, seconds(time.Since(t0)))
		r.check(c.status == http.StatusOK, "setup %d: first batch got HTTP %d", i, c.status)
		srv.Close()
		client.CloseIdleConnections()
		if err := svc.Close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}
	r.e2e["setup_s"] = median(setups)

	base := liveHeap()
	dir := filepath.Join(r.dir, "leaf")
	svc, err := serve.New(leafConfig(st, dir))
	if err != nil {
		return err
	}
	handler := wrapHandler(r.tr, serve.NewServer(svc), func(q *http.Request) string {
		if q.Method == http.MethodPost {
			return "serve:ingest"
		}
		return "serve:read"
	})
	srv := httptest.NewServer(handler)
	rd := newReader(newClient(), r.tr, srv.URL+"/v1/verdict", srv.URL+"/v1/status", readPace)
	stop := make(chan struct{})
	go rd.run(stop, func() int { return epochs })

	var acks samples
	sent := map[int]time.Time{}
	var inferMs []float64 // per close, traced runs only
	var closeSpans []int64
	accepted := 0
	start := time.Now()
	for i, body := range bodies {
		closes := (i+1)*leafBatch%leafEpochRecords == 0
		if closes {
			sent[(i+1)*leafBatch/leafEpochRecords] = time.Now()
		}
		c, err := do(client, r.tr, "bench:post", http.MethodPost, srv.URL+"/v1/ingest", body)
		r.attempted++
		if err != nil || c.status != http.StatusOK {
			r.failed++
			if err != nil {
				close(stop)
				<-rd.done
				return fmt.Errorf("batch %d: %w", i, err)
			}
			r.check(false, "batch %d: HTTP %d: %s", i, c.status, c.body)
			continue
		}
		acks.add(c.rtt)
		var res serve.IngestResult
		if err := json.Unmarshal(c.body, &res); err != nil {
			return fmt.Errorf("batch %d reply: %w", i, err)
		}
		accepted += res.Accepted
		if closes && r.tr != nil {
			inferMs = append(inferMs, svc.Status().LastInferMillis)
			closeSpans = append(closeSpans, c.span.ID)
		}
	}
	ingestWall := time.Since(start)
	close(stop)
	<-rd.done
	r.attempted += rd.gets
	r.failed += rd.failed

	r.e2e["throughput_per_s"] = float64(accepted) / ingestWall.Seconds()
	fresh := rd.freshness(sent, epochs)
	r.check(len(fresh) == epochs, "freshness measured for %d of %d epochs", len(fresh), epochs)
	r.e2e["verdict_p50_ms"] = median(fresh)
	tails(r, acks, fresh, rd.reads)
	r.e2e["heap_mb"] = (float64(liveHeap()) - float64(base)) / (1 << 20)
	runtime.KeepAlive(bodies)
	r.logf("ingest %.2fs, %d acks, %d reads, verdict p90 %.1f ms (%d epochs)",
		ingestWall.Seconds(), len(acks), len(rd.reads), quantile(fresh, 0.9), len(fresh))

	status := svc.Status()
	r.check(status.Epochs == epochs, "service closed %d epochs, want %d", status.Epochs, epochs)
	r.check(status.Records == int64(len(st.recs)) && accepted == len(st.recs),
		"service holds %d records (acked %d), want %d", status.Records, accepted, len(st.recs))
	r.check(status.Duplicates == 0 && status.RejectsBusy == 0, "unexpected rejects: %+v", status)

	preKill, err := do(client, nil, "", http.MethodGet, srv.URL+"/v1/verdict", nil)
	if err != nil {
		return err
	}
	served := bytes.TrimSuffix(preKill.body, []byte("\n"))
	snapBytes := dirBytes(dir, "snapshot-*.json")

	// Kill: stop serving and drop the service without Close, then time
	// restarts from the journal and snapshot until the first GET serves
	// the pre-kill verdict.
	srv.Close()
	client.CloseIdleConnections()
	var resumes, newMs []float64
	for i := range leafRestarts {
		t0 := time.Now()
		cfg := leafConfig(st, dir)
		cfg.Resume = true
		svc2, err := serve.New(cfg)
		if err != nil {
			return fmt.Errorf("restart %d: %w", i, err)
		}
		newMs = append(newMs, ms(time.Since(t0)))
		srv2 := httptest.NewServer(serve.NewServer(svc2))
		c, err := do(client, nil, "", http.MethodGet, srv2.URL+"/v1/verdict", nil)
		if err != nil {
			return err
		}
		resumes = append(resumes, ms(time.Since(t0)))
		r.check(bytes.Equal(c.body, preKill.body), "restart %d serves a different verdict", i)
		srv2.Close()
		client.CloseIdleConnections()
	}
	r.layer["bench.resume_ms"] = median(resumes)

	// Relational checks: an in-memory twin fed the same records closes
	// the same epochs and must serve the same bytes.
	twin, err := serve.New(serve.Config{Net: st.net, EpochRecords: leafEpochRecords})
	if err != nil {
		return err
	}
	for lo := 0; lo < len(st.recs); lo += leafEpochRecords {
		if _, err := twin.Ingest(st.recs[lo:min(lo+leafEpochRecords, len(st.recs))]); err != nil {
			return err
		}
	}
	if r.tamper {
		served = tamperVerdict(served)
	}
	r.check(bytes.Equal(served, twin.VerdictJSON()), "served verdict differs from the in-memory twin:\n%s\n%s", served, twin.VerdictJSON())
	r.check(policersFlagged(served, st.policers) == nil, "planted policers: %v", policersFlagged(served, st.policers))

	if r.tr != nil {
		meas, err := twin.Measurements()
		if err != nil {
			return err
		}
		split := probeInfer(st.net, meas)
		split.report(r)
		pdir := filepath.Join(r.dir, "probe")
		fresh, dup, jpr, err := ingestProbe(leafConfig(st, pdir), st.recs, leafBatch)
		if err != nil {
			return err
		}
		r.layer["serve.ingest_us_per_rec"] = fresh
		r.layer["serve.dup_us_per_rec"] = dup
		r.layer["serve.journal_bytes_per_rec"] = jpr
		r.layer["serve.snapshot_bytes"] = float64(snapBytes)
		r.layer["serve.resume_ms"] = median(newMs)
		r.layer["trace.throughput_per_s"] = r.e2e["throughput_per_s"]
		streamLayers(r, closeSpans, inferMs, split, leafBatch)
	}
	return nil
}
