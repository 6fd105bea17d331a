// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the code as shipped, checks every output
// against a second output of the same run, and prints one JSON result
// line: the end-to-end metrics on an untraced run (--trace 0), the
// per-layer metrics on a traced one (--trace 1).
//
//	bash perfbench/run.sh --workload leaf-history --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for why each workload exists and how
// each metric is measured.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// unit per metric name. The end-to-end metrics are every workload's;
// the per-layer metrics of a layer a workload does not run read 0.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"throughput_per_s": "1/s",
	"verdict_p50_ms":   "ms",
	"heap_mb":          "MB",
}

var layerUnits = map[string]string{
	"bench.op_p50_ms":                   "ms",
	"bench.resume_ms":                   "ms",
	"bench.op_p90_ms":                   "ms",
	"bench.op_p99_ms":                   "ms",
	"bench.verdict_p90_ms":              "ms",
	"bench.read_p50_ms":                 "ms",
	"bench.read_p90_ms":                 "ms",
	"serve.http.ingest_us_per_rec":      "us",
	"serve.ingest_us_per_rec":           "us",
	"serve.dup_us_per_rec":              "us",
	"serve.close_ms":                    "ms",
	"serve.infer_ms":                    "ms",
	"serve.close_other_ms":              "ms",
	"serve.read_us":                     "us",
	"serve.journal_bytes_per_rec":       "B",
	"serve.snapshot_bytes":              "B",
	"serve.resume_ms":                   "ms",
	"serve.ship_ms":                     "ms",
	"serve.ship_ok_ratio":               "ratio",
	"serve.root.deliver_ms":             "ms",
	"serve.root.log_bytes_per_report":   "B",
	"measure.normalize_ms":              "ms",
	"measure.normalize_us_per_interval": "us",
	"measure.lookup_ms":                 "ms",
	"core.algo1_ms":                     "ms",
	"core.lookups":                      "count",
	"emu.events_per_cell":               "count",
	"emu.events_per_s":                  "1/s",
	"sweep.cell_ms":                     "ms",
	"sweep.shard_bytes_per_cell":        "B",
	"sweep.merge_ms":                    "ms",
	"sweep.verify_ms":                   "ms",
	"fleet.dispatch_ratio":              "ratio",
	"fleet.idle_ms":                     "ms",
	"fleet.commit_ms":                   "ms",
	"share.bench":                       "%",
	"share.serve":                       "%",
	"share.serve.ship":                  "%",
	"share.serve.root":                  "%",
	"share.measure":                     "%",
	"share.core":                        "%",
	"share.emu":                         "%",
	"share.sweep":                       "%",
	"share.fleet":                       "%",
	"trace.spans":                       "count",
	"trace.throughput_per_s":            "1/s",
	"fail.http_non2xx":                  "count",
	"fail.http_429":                     "count",
	"fail.ship_retries":                 "count",
	"fail.redispatches":                 "count",
	"fail.speculative":                  "count",
}

// run is one benchmark invocation's shared state.
type run struct {
	workload string
	seed     int64
	seconds  int
	dir      string // scratch directory for journals and shards
	tr       *tracer
	tamper   bool
	log      io.Writer

	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	problems          []string
}

// check records a failed correctness check; any one fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

var workloads = map[string]func(*run) error{
	"leaf-history": leafHistory,
	"tree-ingest":  treeIngest,
	"batch-fleet":  batchFleet,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "leaf-history, tree-ingest or batch-fleet")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		secs     = flag.Int("seconds", 20, "sizes the inputs so the measured phase takes about this long")
		trace    = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
		tamper   = flag.Bool("tamper", false, "self-test: corrupt one output before checking it; the run must fail")
		workdir  = flag.String("workdir", ".bench_build/work", "scratch root for journals and shards")
		tracedir = flag.String("tracedir", ".bench_build/traces", "where a traced run writes its spans")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {leaf-history,tree-ingest,batch-fleet}, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := errors.Join(os.MkdirAll(*workdir, 0o755), os.MkdirAll(*tracedir, 0o755)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{
		workload: *workload, seed: *seed, seconds: *secs, dir: dir,
		tr: newTracer(*trace == 1), tamper: *tamper, log: os.Stderr,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	r.logf("perfbench %s seed=%d seconds=%d trace=%d", r.workload, r.seed, r.seconds, *trace)
	stamp := envStamp(map[string]string{"work": dir, "traces": *tracedir})
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.tr != nil {
		r.layer["trace.spans"] = float64(len(r.tr.snapshot()))
		path := filepath.Join(*tracedir, r.workload+".spans.jsonl")
		if err := r.tr.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		r.logf("spans: %s", path)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	units, vals := e2eUnits, r.e2e
	if r.tr != nil {
		units, vals = layerUnits, r.layer
	}
	out := map[string]metric{}
	for name, unit := range units {
		v, ok := vals[name]
		if !ok {
			if r.tr == nil {
				fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", name)
				return 1
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, v)
			return 1
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	printReport(os.Stderr, out)
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"env": stamp})
	enc.Encode(result{Correct: len(r.problems) == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: out})
	if err := w.Flush(); err != nil {
		return 1
	}
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printReport(w io.Writer, out map[string]metric) {
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, out[k].Value, out[k].Unit)
	}
}

// envStamp describes the machine a result was measured on, with the
// filesystem type of every directory the run writes.
func envStamp(dirs map[string]string) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fs := map[string]string{}
	for k, d := range dirs {
		fs[k] = fsType(d)
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"fs":         fs,
	}
}
