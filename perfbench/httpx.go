package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"neutrality/internal/measure"
)

// client is one generator connection pool. Each sender waits for its
// reply before it sends again (closed loop), so a pool per sender keeps
// one connection busy.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// call is one timed HTTP exchange as the generator sees it.
type call struct {
	status int
	body   []byte
	start  time.Time
	rtt    time.Duration
	span   span
}

// do sends one request, reads the whole reply and times the round
// trip. On a traced run the round trip is a span that the server-side
// span names as its parent.
func do(c *http.Client, tr *tracer, spanName, method, url string, body []byte) (call, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return call{}, err
	}
	s := tr.begin(spanName, 0)
	if s.ID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return call{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	tr.end(s)
	if err != nil {
		return call{}, err
	}
	return call{status: resp.StatusCode, body: b, start: start, rtt: rtt, span: s}, nil
}

// encodeBatches renders records as the ingest protocol's JSON lines,
// size records per body.
func encodeBatches(recs []measure.StreamRecord, size int) [][]byte {
	var out [][]byte
	for lo := 0; lo < len(recs); lo += size {
		hi := min(lo+size, len(recs))
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range recs[lo:hi] {
			enc.Encode(r)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// verdictEpoch extracts the epoch number from a verdict document.
func verdictEpoch(body []byte) (int, error) {
	var v verdictDoc
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, fmt.Errorf("decoding verdict: %w", err)
	}
	return v.Epoch, nil
}
