// Command perfbench is the repository's end-to-end benchmark. It boots the
// real HTTP server in-process over a disk store, drives one workload at it
// from at most nproc connections, checks every answer, and prints each
// metric with its unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
//
// Workloads: interactive and solver-cold (see design.json).
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from a traced run and writes its spans to .bench_build/trace-*.json.
// The command exits non-zero when any answer is wrong, any check fails,
// or the run is invalid.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are what a user of the system sees, reported on every workload
// by an untraced run. design.json says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"ingest_policies_per_s", "1/s"},
	{"sweep_cold_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics of a traced run, reported on
// every workload.
var perLayer = []metricDef{
	{"server.self_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.inflight_peak", "count"},
	{"server.engine_builds", "count"},
	{"server.engine_cold_start_ms", "ms"},
	{"query.translate_ms", "ms"},
	{"query.subgraph_ms", "ms"},
	{"query.compile_ms", "ms"},
	{"query.solve_ms", "ms"},
	{"llm.calls_per_query", "calls/query"},
	{"llm.call_ms", "ms"},
	{"smt.cache_hit_ratio", "ratio"},
	{"smt.cache_evictions", "count"},
	{"smt.cache_key_ms", "ms"},
	{"smt.checks_per_query", "checks/query"},
	{"smt.solve_ms", "ms"},
	{"smt.instantiations_per_query", "inst/query"},
	{"smtlib.parse_ms", "ms"},
	{"smtlib.decode_ms", "ms"},
	{"smt.script_solve_ms", "ms"},
	{"pipeline.extract_ms", "ms"},
	{"pipeline.graph_ms", "ms"},
	{"taxonomy.build_ms", "ms"},
	{"extract.llm_calls_per_policy", "calls/policy"},
	{"core.encode_ms", "ms"},
	{"core.decode_ms", "ms"},
	{"core.payload_kb", "kB"},
	{"store.wal_syncs", "count"},
	{"store.bytes_per_policy", "B/policy"},
	{"store.op_ms", "ms"},
	{"ingest.analyze_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.load_payload_ms", "ms"},
	{"corpus.policy_ms", "ms"},
	{"runtime.alloc_kb_per_op", "kB/op"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"trace.attributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// env is one benchmark run.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// scale < 1 shrinks corpora for smoke tests.
	scale float64
	// dir holds the run's data and is removed at exit; outDir receives
	// the trace.
	dir, outDir string
	// conns bounds client connections and workers: nproc.
	conns int
	out   io.Writer

	attempted, failed atomic.Int64
}

// count records one checked operation.
func (e *env) count(err error) {
	e.attempted.Add(1)
	if err != nil {
		e.failed.Add(1)
	}
}

// countOps records the ops of a phase and returns the first failure.
func (e *env) countOps(ops []op) error {
	var first error
	for _, o := range ops {
		e.count(o.err)
		if o.err != nil && first == nil {
			first = fmt.Errorf("%s request: %w", o.req.Kind, o.err)
		}
	}
	return first
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.out, "# "+format+"\n", args...) }

// measured is one metric value with its sample count (0 when the value is
// not a statistic over samples).
type measured struct {
	value float64
	n     int
}

// report is what a workload measured.
type report struct {
	e2e, layer map[string]measured
	// info holds further figures printed for a reader but not gated.
	info map[string]measured
	// invalid, when set, says why the run's numbers must not be used.
	invalid string
}

func newReport() *report {
	return &report{e2e: map[string]measured{}, layer: map[string]measured{}, info: map[string]measured{}}
}

type workload func(ctx context.Context, e *env) (*report, error)

var workloads = map[string]workload{
	"interactive": runInteractive,
	"solver-cold": runSolverCold,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: interactive or solver-cold")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	scale := fs.Float64("scale", 1, "corpus scale (below 1 only for smoke tests)")
	workdir := fs.String("workdir", ".bench_build", "directory for run data and traces")
	writeRef := fs.String("write-reference", "", "regenerate the reference tables into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *writeRef != "" {
		if err := writeReferences(ctx, *writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *scale <= 0 || *scale > 1 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{
		workload: *name, seed: *seed, trace: *trace == 1, scale: *scale,
		seconds: time.Duration(*seconds * float64(time.Second)),
		dir:     dir, outDir: *workdir, conns: runtime.NumCPU(), out: stdout,
	}
	rep, err := wl(ctx, e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return finish(e, rep, stdout, stderr)
}

// finish prints every metric for a reader, then the result line.
func finish(e *env, rep *report, stdout, stderr io.Writer) int {
	attempted, failed := e.attempted.Load(), e.failed.Load()
	rep.info["failed_frac"] = measured{ratio(float64(failed), float64(attempted)), int(attempted)}
	defs := endToEnd
	gated := rep.e2e
	if e.trace {
		defs, gated = perLayer, rep.layer
	}
	printGroup(stdout, "end-to-end", endToEnd, rep.e2e)
	printGroup(stdout, "per-layer", perLayer, rep.layer)
	var info []string
	for k := range rep.info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		printMetric(stdout, k, infoUnit(k), rep.info[k])
	}
	if rep.invalid != "" {
		fmt.Fprintln(stderr, "perfbench: run invalid:", rep.invalid)
		return 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	var missing []string
	for _, d := range defs {
		m, ok := gated[d.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = value{m.value, d.unit}
	}
	if len(missing) > 0 {
		fmt.Fprintln(stderr, "perfbench: metrics not measured:", missing)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct || attempted == 0 {
		return 1
	}
	return 0
}

func printGroup(w io.Writer, title string, defs []metricDef, got map[string]measured) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, d := range defs {
		if m, ok := got[d.name]; ok {
			printMetric(w, d.name, d.unit, m)
		}
	}
}

func printMetric(w io.Writer, name, unit string, m measured) {
	n := ""
	if m.n > 0 {
		n = fmt.Sprintf("  (n=%d)", m.n)
	}
	fmt.Fprintf(w, "%-32s %14.4f %s%s\n", name, m.value, unit, n)
}

// infoUnit reads an informational figure's unit off its name.
func infoUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_s", "s"}, {"_frac", "ratio"}, {"_share", "ratio"}, {"_ratio", "ratio"}, {"_requests", "count"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return ""
}

// tracePath is where a traced run writes its spans.
func tracePath(e *env) string {
	return filepath.Join(e.outDir, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
}
