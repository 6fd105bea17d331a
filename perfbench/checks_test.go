package main

import (
	"io"
	"testing"
	"time"
)

// TestTamperedOutputIsCaught runs every workload at its smallest size
// twice: as shipped, where every relational check must pass, and with
// one output corrupted before it is checked, where the run must fail.
func TestTamperedOutputIsCaught(t *testing.T) {
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, tamper := range []bool{false, true} {
				r := &run{workload: name, seed: 7, seconds: 1, dir: t.TempDir(), tamper: tamper,
					log: io.Discard, e2e: map[string]float64{}, layer: map[string]float64{}}
				if err := fn(r); err != nil {
					t.Fatalf("tamper=%v: %v", tamper, err)
				}
				if caught := len(r.problems) > 0; caught != tamper {
					t.Fatalf("tamper=%v: check failures %q", tamper, r.problems)
				}
				for metric := range e2eUnits {
					if _, ok := r.e2e[metric]; !ok {
						t.Errorf("tamper=%v: %s not measured", tamper, metric)
					}
				}
			}
		})
	}
}

func TestPolicersFlagged(t *testing.T) {
	for _, c := range []struct {
		verdict string
		ok      bool
	}{
		{`{"non_neutral":true,"slices":[{"seq":"<l1,l2>","non_neutral":true},{"seq":"<l5>","non_neutral":false}]}`, true},
		{`{"non_neutral":false,"slices":[{"seq":"<l1,l2>","non_neutral":false}]}`, false},
		{`{"non_neutral":true,"slices":[{"seq":"<l5>","non_neutral":true}]}`, false},
	} {
		if err := policersFlagged([]byte(c.verdict), []string{"l2", "l14"}); (err == nil) != c.ok {
			t.Errorf("%s: got %v, want ok=%v", c.verdict, err, c.ok)
		}
	}
}

// TestSelfTimes pins the self-time rule: a span's duration minus the
// union of its children's intervals, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(true)
	ms := int64(time.Millisecond)
	tr.spans = []span{
		{ID: 1, Name: "bench:post", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "serve:ingest", Start: 2 * ms, End: 8 * ms},
		{ID: 3, Parent: 2, Name: "core:infer", Start: 3 * ms, End: 6 * ms},
		{ID: 4, Parent: 2, Name: "core:infer", Start: 5 * ms, End: 7 * ms},
	}
	got := tr.selfTimes()
	want := map[string]time.Duration{"bench": 4 * time.Millisecond, "serve": 2 * time.Millisecond, "core": 5 * time.Millisecond}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s self time %v, want %v", k, got[k], v)
		}
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{4, 1, 3, 2, 5}
	if q := median(vals); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile(vals, 0.9); q != 4.6 {
		t.Errorf("p90 %v, want 4.6", q)
	}
}
