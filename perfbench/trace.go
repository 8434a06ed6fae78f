package main

// The traced run. Spans are recorded only here, in the benchmark, around
// calls into each module's public functions; nothing inside the program
// is instrumented. After the traced phase the server is stopped and the
// benchmark
//   - reopens the run's store (store.OpenDisk), loads, decodes and
//     re-encodes every policy payload (store.LoadPayload,
//     core.Pipeline.DecodeAnalysis, core.EncodeAnalysis), and
//   - replays the traced phase's query requests in order, in-process, on
//     those analyses: core.Pipeline.Ask for the same request, json.Marshal
//     of the response the server sent, and on the answer's SMT-LIB script
//     smt.CacheKey, smtlib.Parse, smtlib.DecodeScript and an uncached
//     smt.SolveScript.
// Each replayed span's parent is the request's HTTP span, so a request's
// server self time is its HTTP span minus its in-process Ask span. Last,
// the replayed Asks run again with and without spans, which gives the
// cost of recording them (trace.overhead_frac).

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/query"
	"github.com/privacy-quagmire/quagmire/internal/smt"
	"github.com/privacy-quagmire/quagmire/internal/smtlib"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// span is one timed interval. Req groups the spans of one request (-1
// for spans outside any request); Parent is the causing span's ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. Only the
// replaying goroutine records spans.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// time runs fn inside a span and returns the span's ID.
func (t *tracer) time(name string, parent, req int, fn func()) int {
	start := time.Now()
	fn()
	return t.add(name, parent, req, start, time.Now())
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// meanMS is the mean duration of spans named name, in milliseconds, with
// their count.
func (t *tracer) meanMS(name string) measured {
	var total time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	return measured{ratio(ms(total), float64(n)), n}
}

// shadow holds in-process analyses of the served policies, decoded from
// the run's store, indexed like the workload's docs.
type shadow struct {
	p        *core.Pipeline
	analyses []*core.Analysis
	// payloadKB is the mean stored payload size.
	payloadKB float64
}

// openShadow runs the store spans over the stopped server's data dir.
func openShadow(t *tracer, dataDir string, docs []policyDoc) (*shadow, error) {
	p, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	var disk *store.Disk
	t.time("store.open", 0, -1, func() { disk, err = store.OpenDisk(dataDir, store.Options{Obs: p.Obs()}) })
	if err != nil {
		return nil, err
	}
	defer disk.Close()
	byName := map[string]int{}
	for i, d := range docs {
		byName[d.Name] = i
	}
	pols, err := disk.List()
	if err != nil {
		return nil, err
	}
	sh := &shadow{p: p, analyses: make([]*core.Analysis, len(docs))}
	var total int
	for _, pol := range pols {
		i, ok := byName[pol.Name]
		if !ok {
			return nil, fmt.Errorf("store holds unknown policy %q", pol.Name)
		}
		var payload []byte
		t.time("store.load_payload", 0, -1, func() { payload, err = disk.LoadPayload(pol.ID, pol.Versions) })
		if err != nil {
			return nil, err
		}
		total += len(payload)
		t.time("core.decode", 0, -1, func() { sh.analyses[i], err = p.DecodeAnalysis(payload) })
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", pol.Name, err)
		}
		t.time("core.encode", 0, -1, func() { _, err = core.EncodeAnalysis(sh.analyses[i]) })
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", pol.Name, err)
		}
	}
	if len(pols) != len(docs) {
		return nil, fmt.Errorf("store holds %d policies, want %d", len(pols), len(docs))
	}
	sh.payloadKB = float64(total) / 1024 / float64(len(pols))
	return sh, nil
}

// shadowWarm is how many preceding query requests the shadow replays,
// untraced, before the traced ones, so its result cache (4096 entries)
// and LLM cache hold what the server's held.
const shadowWarm = 6000

// replayBudget bounds the traced replay's wall time.
const replayBudget = 3 * time.Second

// askCall is one replayed core.Pipeline.Ask.
type askCall struct {
	a *core.Analysis
	q string
}

// replay replays the traced phase's queries in order until
// replayBudget is spent, after warming on the queries in before, and
// returns trace.overhead_frac.
func (sh *shadow) replay(ctx context.Context, t *tracer, docs []policyDoc, before, traced []op) (measured, error) {
	var warm []op
	for _, o := range before {
		if o.req.Kind == kindQuery {
			warm = append(warm, o)
		}
	}
	if len(warm) > shadowWarm {
		warm = warm[len(warm)-shadowWarm:]
	}
	for _, o := range warm {
		if _, err := sh.p.Ask(ctx, sh.analyses[o.req.Policy], docs[o.req.Policy].Questions[o.req.Q]); err != nil {
			return measured{}, err
		}
	}
	// The server built every engine at its cold sweep; build the shadow's
	// too, so the first replayed requests do not pay for it.
	for _, a := range sh.analyses {
		if _, err := sh.p.Ask(ctx, a, coldQuestion); err != nil {
			return measured{}, err
		}
	}
	deadline := time.Now().Add(replayBudget)
	var asks []askCall
	for i, o := range traced {
		if o.err != nil || o.req.Kind != kindQuery {
			continue
		}
		if len(asks) > 0 && time.Now().After(deadline) {
			break
		}
		httpID := t.add("http."+o.req.Kind.String(), 0, i, o.sent, o.done)
		q := docs[o.req.Policy].Questions[o.req.Q]
		asks = append(asks, askCall{sh.analyses[o.req.Policy], q})
		if err := sh.replayQuery(ctx, t, httpID, i, q, sh.analyses[o.req.Policy], o.body); err != nil {
			return measured{}, err
		}
	}
	return sh.spanOverhead(ctx, asks[:min(len(asks), overheadAsks)])
}

// overheadAsks caps the Asks spanOverhead times per pass.
const overheadAsks = 400

// spanOverhead measures what recording a span costs the code it times.
// After one untimed pass over asks (so every timed call finds the same
// warm caches), three passes call each Ask twice in a row, once plainly
// and once inside a span on a scratch tracer, alternating which goes
// first; it returns the summed traced wall time over the summed plain.
func (sh *shadow) spanOverhead(ctx context.Context, asks []askCall) (measured, error) {
	scratch := newTracer()
	var plain, traced time.Duration
	call := func(c askCall, span bool) (time.Duration, error) {
		var err error
		start := time.Now()
		if span {
			scratch.time("core.ask", 0, -1, func() { _, err = sh.p.Ask(ctx, c.a, c.q) })
		} else {
			_, err = sh.p.Ask(ctx, c.a, c.q)
		}
		return time.Since(start), err
	}
	for _, c := range asks {
		if _, err := call(c, false); err != nil {
			return measured{}, err
		}
	}
	for pass := 0; pass < 3; pass++ {
		for i, c := range asks {
			for k := 0; k < 2; k++ {
				span := (i+k)%2 == 1
				d, err := call(c, span)
				if err != nil {
					return measured{}, err
				}
				if span {
					traced += d
				} else {
					plain += d
				}
			}
		}
	}
	return measured{ratio(float64(traced), float64(plain)), 3 * len(asks)}, nil
}

func (sh *shadow) replayQuery(ctx context.Context, t *tracer, httpID, req int, q string, a *core.Analysis, body []byte) error {
	var res *query.Result
	var err error
	askID := t.time("core.ask", httpID, req, func() { res, err = sh.p.Ask(ctx, a, q) })
	if err != nil {
		return err
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	t.time("server.encode", httpID, req, func() { _, err = json.Marshal(resp) })
	if err != nil {
		return err
	}
	return probeScript(t, askID, req, res.Script)
}

// probeScript times the SMT layers on one compiled query script.
func probeScript(t *tracer, parent, req int, script string) error {
	var err error
	t.time("smt.cache_key", parent, req, func() { _ = smt.CacheKey(script, smt.Limits{}) })
	t.time("smtlib.parse", parent, req, func() { _, err = smtlib.Parse(script) })
	if err != nil {
		return fmt.Errorf("smtlib.Parse: %w", err)
	}
	t.time("smtlib.decode", parent, req, func() { _, err = smtlib.DecodeScript(script) })
	if err != nil {
		return fmt.Errorf("smtlib.DecodeScript: %w", err)
	}
	t.time("smt.script_solve", parent, req, func() { _, err = smt.SolveScript(script, smt.Limits{}) })
	if err != nil {
		return fmt.Errorf("smt.SolveScript: %w", err)
	}
	return nil
}

// spanLayers derives the span-based layer metrics.
func spanLayers(t *tracer) map[string]measured {
	byReq := map[int]map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Req < 0 {
			continue
		}
		m := byReq[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			byReq[s.Req] = m
		}
		if s.Parent == 0 {
			m["http"] += s.dur()
		} else {
			m[s.Name] += s.dur()
		}
	}
	var self, attributed, total time.Duration
	for _, m := range byReq {
		self += m["http"] - m["core.ask"]
		attributed += m["core.ask"] + m["server.encode"]
		total += m["http"]
	}
	n := len(byReq)
	return map[string]measured{
		"server.self_ms":        {ratio(ms(self), float64(n)), n},
		"server.encode_ms":      t.meanMS("server.encode"),
		"trace.attributed_frac": {ratio(float64(attributed), float64(total)), n},
		"smt.cache_key_ms":      t.meanMS("smt.cache_key"),
		"smtlib.parse_ms":       t.meanMS("smtlib.parse"),
		"smtlib.decode_ms":      t.meanMS("smtlib.decode"),
		"smt.script_solve_ms":   t.meanMS("smt.script_solve"),
		"store.open_ms":         t.meanMS("store.open"),
		"store.load_payload_ms": t.meanMS("store.load_payload"),
		"core.decode_ms":        t.meanMS("core.decode"),
		"core.encode_ms":        t.meanMS("core.encode"),
	}
}
