package main

// The two workloads and the measurement they share. Each one sets up
// (setUp: ingest its corpus, boot, cold sweep — several times), warms up
// untimed, then runs its timed phase and sets up again; measure turns
// that into metrics.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/smt"
)

// timedRun is what a workload hands to measure.
type timedRun struct {
	docs []policyDoc
	set  *setupResult
	// warm holds the warm-up's ops, which the traced replay warms on.
	warm []op
	// phase runs the workload's loop for dur.
	phase func(dur time.Duration, keepBody bool) []op
	// openLoop marks a schedule-driven phase, whose generator lateness
	// can invalidate the run.
	openLoop bool
}

func runInteractive(ctx context.Context, e *env) (*report, error) {
	docs := interactiveCorpus(e.scale)
	refs, err := loadReference(ctx, "interactive", docs, e.scale < 1)
	if err != nil {
		return nil, err
	}
	corpusDir := filepath.Join(e.dir, "corpus")
	if err := writeCorpus(corpusDir, docs); err != nil {
		return nil, err
	}
	set, err := setUp(ctx, e, corpusDir, docs, checkRowsAgainst(docs, refs))
	if err != nil {
		return nil, err
	}
	st, ids := set.st, idsOf(docs, set.ids)
	exec := func(ctx context.Context, r request) ([]byte, error) {
		d := docs[r.Policy]
		path := "/v1/policies/" + ids[r.Policy]
		switch r.Kind {
		case kindQuery:
			return queryChecked(ctx, st, path, d.Questions[r.Q], func(got answer) bool { return refs.accepts(r.Policy, r.Q, got) })
		case kindRead:
			b, err := st.doOK(ctx, http.MethodGet, path+r.Read, nil)
			if err == nil && !json.Valid(b) {
				err = errors.New("read: invalid JSON")
			}
			return b, err
		default:
			text := d.Text
			if r.Version%2 == 0 {
				text = d.Alt
			}
			b, err := st.doOK(ctx, http.MethodPut, path, map[string]string{"text": text})
			if err != nil {
				return nil, err
			}
			var resp struct {
				Policy struct {
					ID       string `json:"id"`
					Versions int    `json:"versions"`
				} `json:"policy"`
			}
			if err := json.Unmarshal(b, &resp); err != nil {
				return nil, err
			}
			if resp.Policy.ID != ids[r.Policy] || resp.Policy.Versions != r.Version {
				return nil, fmt.Errorf("update %s: got %s v%d, want v%d", ids[r.Policy], resp.Policy.ID, resp.Policy.Versions, r.Version)
			}
			return b, nil
		}
	}
	gen := newInteractiveGen(docs, e.seed)
	phase := func(dur time.Duration, keepBody bool) []op {
		gen.restart()
		return openLoop(ctx, dur, e.conns, gen.next, exec, keepBody)
	}
	// Warm up on a stream drawn like the timed one, closed-loop so the
	// result cache fills faster than the open loop would fill it, in
	// windows until the cache is full and the hit ratio has levelled off.
	// The warm-up sends no updates: each PUT adds a ~65 kB version that
	// the store keeps and rewrites at every WAL compaction, so warm-up
	// updates would make the timed phase's compactions depend on how long
	// the warm-up ran.
	window := min(time.Second, max(200*time.Millisecond, e.seconds/10))
	warmGen := newInteractiveGen(docs, e.seed^warmSeedSalt)
	warmGen.noUpdates = true
	warmNext := func() (request, bool) { return warmGen.next(math.MaxInt64) }
	var warm []op
	var hits []float64
	start := time.Now()
	for len(hits) < maxWarmWindows {
		before, err := st.scrape(ctx)
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		ops := closedLoop(ctx, window, e.conns, warmNext, exec, false)
		after, err := st.scrape(ctx)
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		warm = append(warm, ops...)
		hits = append(hits, hitRatio(before, after))
		if after.sum("quagmire_smt_cache_entries") >= smt.DefaultCacheSize && levelled(hits) {
			break
		}
	}
	e.logf("warm-up hit ratios per window: %.3f", hits)
	windows := len(hits)
	if err := e.countOps(warm); err != nil {
		e.logf("warm-up: %v", err)
	}
	rep := newReport()
	rep.info["warmup_s"] = measured{time.Since(start).Seconds(), windows}
	return measure(ctx, e, rep, timedRun{docs: docs, set: set, warm: warm, phase: phase, openLoop: true})
}

func runSolverCold(ctx context.Context, e *env) (*report, error) {
	docs := solverColdCorpus(e.scale)
	refs, err := loadReference(ctx, "solver-cold", docs, e.scale < 1)
	if err != nil {
		return nil, err
	}
	corpusDir := filepath.Join(e.dir, "corpus")
	if err := writeCorpus(corpusDir, docs); err != nil {
		return nil, err
	}
	set, err := setUp(ctx, e, corpusDir, docs, checkRowsAgainst(docs, refs))
	if err != nil {
		return nil, err
	}
	st, ids := set.st, idsOf(docs, set.ids)
	// Untimed warm-up on questions the timed phase never asks.
	start := time.Now()
	warmQs := coldWarmup(docs)
	var mu sync.Mutex
	var warmErr error
	parallel(len(docs)*len(warmQs[0]), e.conns, func(i int) {
		p, q := i%len(docs), i/len(docs)
		_, err := queryChecked(ctx, st, "/v1/policies/"+ids[p], warmQs[p][q], func(a answer) bool { return a.Verdict != "" })
		mu.Lock()
		defer mu.Unlock()
		e.count(err)
		warmErr = errors.Join(warmErr, err)
	})
	if warmErr != nil {
		e.logf("warm-up: %v", warmErr)
	}
	rep := newReport()
	rep.info["warmup_s"] = measured{time.Since(start).Seconds(), len(docs) * len(warmQs[0])}

	sched := coldSchedule(docs, e.seed)
	pos := 0
	next := func() (request, bool) {
		if pos >= len(sched) {
			return request{}, false
		}
		pos++
		return sched[pos-1], true
	}
	exec := func(ctx context.Context, r request) ([]byte, error) {
		return queryChecked(ctx, st, "/v1/policies/"+ids[r.Policy], docs[r.Policy].Questions[r.Q], func(got answer) bool { return refs.accepts(r.Policy, r.Q, got) })
	}
	phase := func(dur time.Duration, keepBody bool) []op {
		return closedLoop(ctx, dur, e.conns, next, exec, keepBody)
	}
	return measure(ctx, e, rep, timedRun{docs: docs, set: set, phase: phase})
}

// queryChecked asks one question and checks the verdict with ok.
func queryChecked(ctx context.Context, st *stack, path, question string, ok func(answer) bool) ([]byte, error) {
	b, err := st.doOK(ctx, http.MethodPost, path+"/query", map[string]string{"question": question})
	if err != nil {
		return nil, err
	}
	var resp queryResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, err
	}
	if got := (answer{resp.Verdict, resp.ConditionalOn}); !ok(got) {
		return b, fmt.Errorf("wrong answer to %q: %+v", question, got)
	}
	return b, nil
}

func idsOf(docs []policyDoc, byName map[string]string) []string {
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = byName[d.Name]
	}
	return ids
}

// parallel runs fn(0..n-1) on workers goroutines.
func parallel(n, workers int, fn func(i int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

func hitRatio(before, after scrape) float64 {
	h := delta(before, after, "quagmire_smt_cache_hits_total")
	return ratio(h, h+delta(before, after, "quagmire_smt_cache_misses_total"))
}

// measure runs the timed phase for e.seconds and derives every metric.
// A traced run keeps the response bodies and replays the phase afterwards
// to record its spans (trace.go).
func measure(ctx context.Context, e *env, rep *report, w timedRun) (*report, error) {
	st := w.set.st
	running := true
	defer func() {
		if running {
			_ = st.close()
		}
	}()
	before, err := st.scrape(ctx)
	if err != nil {
		return nil, err
	}
	procBefore := readProc()
	start := time.Now()
	ops := w.phase(e.seconds, e.trace)
	elapsed := time.Since(start)
	procAfter := readProc()
	after, err := st.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rssMB := peakRSSMB()
	running = false
	if err := st.close(); err != nil {
		return nil, err
	}
	if !e.trace {
		if err := w.set.after(ctx, e); err != nil {
			return nil, err
		}
	}
	if err := e.countOps(ops); err != nil {
		e.logf("timed phase: %v", err)
	}

	// End to end.
	set := w.set
	prim := statsOf(ops, kindQuery)
	rep.e2e["setup_s"] = measured{median(set.setupS), len(set.setupS)}
	rep.e2e["ingest_policies_per_s"] = measured{median(set.ingestRate), len(set.ingestRate)}
	rep.e2e["sweep_cold_ms"] = measured{median(set.coldSweepMS), len(set.coldSweepMS)}
	rep.e2e["query_p50_ms"] = measured{prim.p(0.5), len(prim.lat)}
	rep.e2e["queries_per_s"] = measured{float64(len(prim.lat)) / elapsed.Seconds(), len(prim.lat)}
	rep.e2e["peak_rss_mb"] = measured{rssMB, 0}
	rep.info["query_p90_ms"] = measured{prim.p(0.9), len(prim.lat)}
	rep.info["query_p99_ms"] = measured{prim.p(0.99), len(prim.lat)}
	for _, k := range []kind{kindRead, kindUpdate} {
		if s := statsOf(ops, k); s.n > 0 {
			rep.info[k.String()+"_p50_ms"] = measured{s.p(0.5), len(s.lat)}
			rep.info[k.String()+"_p99_ms"] = measured{s.p(0.99), len(s.lat)}
		}
	}
	rep.info["timed_s"] = measured{elapsed.Seconds(), len(ops)}
	share := lagShare(ops)
	rep.info["bench.gen_lag_share"] = measured{share, len(ops)}
	rep.info["server.admission_wait_ms"] = measured{meanMS(before, after, "quagmire_http_solver_queue_wait_seconds"), 0}
	if w.openLoop && share > 0.5 {
		rep.invalid = fmt.Sprintf("generator lateness is %.0f%% of the measured latency: the generator, not the server, set the pace", share*100)
	}
	layers(rep, w, before, after, procBefore, procAfter, ops)
	if !e.trace {
		return rep, nil
	}

	// Traced run: store spans, then the in-process replay.
	t := newTracer()
	sh, err := openShadow(t, set.dataDir, w.docs)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	overhead, err := sh.replay(ctx, t, w.docs, w.warm, ops)
	if err != nil {
		return nil, fmt.Errorf("trace replay: %w", err)
	}
	for k, v := range spanLayers(t) {
		rep.layer[k] = v
	}
	rep.layer["core.payload_kb"] = measured{sh.payloadKB, len(w.docs)}
	rep.layer["trace.overhead_frac"] = overhead
	if err := t.write(tracePath(e)); err != nil {
		return nil, err
	}
	e.logf("spans written to %s", tracePath(e))
	return rep, nil
}

// layers fills the counter-based per-layer metrics: the timed window from
// /metrics, engine builds over the last boot's cold sweep, corpus sweeps
// since that boot, and the ingest layers from the last ingest's
// in-process registry.
func layers(rep *report, w timedRun, before, after scrape, pb, pa procStats, ops []op) {
	set := w.set
	queries := delta(before, after, "quagmire_query_phase_seconds_count", `phase="solve"`)
	n := int(queries)
	put := func(name string, v float64, n int) { rep.layer[name] = measured{v, n} }
	for _, ph := range []string{"translate", "subgraph", "compile", "solve"} {
		put("query."+ph+"_ms", meanMS(before, after, "quagmire_query_phase_seconds", `phase="`+ph+`"`), n)
	}
	put("llm.calls_per_query", ratio(delta(before, after, "quagmire_llm_call_seconds_count", `phase="query"`), queries), n)
	put("llm.call_ms", meanMS(before, after, "quagmire_llm_call_seconds", `phase="query"`), 0)
	hits := delta(before, after, "quagmire_smt_cache_hits_total")
	misses := delta(before, after, "quagmire_smt_cache_misses_total")
	put("smt.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	put("smt.cache_evictions", delta(before, after, "quagmire_smt_cache_evictions_total"), 0)
	put("smt.checks_per_query", ratio(hits+misses, queries), n)
	put("smt.solve_ms", meanMS(before, after, "quagmire_smt_solve_seconds"), int(delta(before, after, "quagmire_smt_solve_seconds_count")))
	put("smt.instantiations_per_query", ratio(delta(before, after, "quagmire_smt_instantiations_total"), queries), n)
	put("server.inflight_peak", after.sum("quagmire_http_solver_inflight_peak"), 0)
	put("server.engine_builds", delta(set.booted, set.swept, "quagmire_engine_builds_total"), 0)
	put("server.engine_cold_start_ms", meanMS(set.booted, set.swept, "quagmire_engine_cold_start_seconds"),
		int(delta(set.booted, set.swept, "quagmire_engine_cold_start_seconds_count")))
	put("corpus.policy_ms", meanMS(set.booted, after, "quagmire_corpus_policy_seconds"),
		int(delta(set.booted, after, "quagmire_corpus_policy_seconds_count")))
	put("runtime.alloc_kb_per_op", (pa.allocBytes-pb.allocBytes)/1024/float64(len(ops)), len(ops))
	put("runtime.gc_cpu_frac", ratio(pa.gcCPU-pb.gcCPU, pa.totalCPU-pb.totalCPU), 0)
	put("bench.gen_lag_p99_ms", lagP99(ops), len(ops))

	ing, none := set.lastIngest.metrics, scrape{}
	pols := float64(len(w.docs))
	put("pipeline.extract_ms", meanMS(none, ing, "quagmire_pipeline_phase_seconds", `phase="extract"`), len(w.docs))
	put("pipeline.graph_ms", meanMS(none, ing, "quagmire_pipeline_phase_seconds", `phase="graph"`), len(w.docs))
	put("taxonomy.build_ms", meanMS(none, ing, "quagmire_taxonomy_build_seconds"), int(ing.sum("quagmire_taxonomy_build_seconds_count")))
	put("extract.llm_calls_per_policy", ing.sum("quagmire_extract_llm_calls_total")/pols, len(w.docs))
	put("store.wal_syncs", ing.sum("quagmire_store_wal_syncs_total"), 0)
	put("store.bytes_per_policy", float64(set.lastIngest.storeBytes)/pols, len(w.docs))
	put("store.op_ms", meanMS(none, ing, "quagmire_store_op_seconds"), int(ing.sum("quagmire_store_op_seconds_count")))
	put("ingest.analyze_ms", meanMS(none, ing, "quagmire_ingest_analyze_seconds"), len(w.docs))
}

// maxWarmWindows bounds the interactive warm-up.
const maxWarmWindows = 20

// levelled reports whether the last three windows' hit ratios lie within
// 0.01 of each other.
func levelled(hits []float64) bool {
	if len(hits) < 3 {
		return false
	}
	last := hits[len(hits)-3:]
	return math.Abs(last[0]-last[1]) < 0.01 && math.Abs(last[1]-last[2]) < 0.01 && math.Abs(last[0]-last[2]) < 0.01
}

// warmSeedSalt derives the interactive warm-up stream's seed from --seed.
const warmSeedSalt = 0x7761726d
