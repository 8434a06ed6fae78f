package main

// The system under test, booted the way `quagmired -data DIR` deploys it:
// a default core.Pipeline, a disk store, server.New with default options,
// served over a loopback listener. Plus the client side: request helpers,
// /metrics scraping, the ingest run and the repeated set-up.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/ingest"
	"github.com/privacy-quagmire/quagmire/internal/obs"
	"github.com/privacy-quagmire/quagmire/internal/server"
	"github.com/privacy-quagmire/quagmire/internal/store"
)

// stack is one booted server over a disk store.
type stack struct {
	disk   *store.Disk
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// boot opens dataDir and serves it on a loopback port; conns bounds the
// client's connections.
func boot(dataDir string, conns int) (*stack, error) {
	p, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	disk, err := store.OpenDisk(dataDir, store.Options{Obs: p.Obs()})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{Pipeline: p, Store: disk})
	if err != nil {
		return nil, errors.Join(err, disk.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, errors.Join(err, disk.Close())
	}
	s := &stack{
		disk: disk, srv: srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops serving, waits for the serve loop, then closes the server
// and the store (which compacts the WAL into a snapshot).
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	s.srv.Close()
	return errors.Join(err, s.disk.Close())
}

// do sends one request and reads the whole response body.
func (s *stack) do(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// httpError is a non-2xx response.
type httpError struct {
	code int
	body string
}

func (e httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, strings.TrimSpace(e.body))
}

// doOK is do that turns a non-2xx status into an error.
func (s *stack) doOK(ctx context.Context, method, path string, body any) ([]byte, error) {
	code, b, err := s.do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	if code/100 != 2 {
		return nil, httpError{code, string(b)}
	}
	return b, nil
}

// queryResponse mirrors the server's query payload.
type queryResponse struct {
	Verdict       string            `json:"verdict"`
	ConditionalOn []string          `json:"conditional_on,omitempty"`
	Placeholders  []string          `json:"placeholders,omitempty"`
	Translations  map[string]string `json:"translations,omitempty"`
	MatchedEdges  []string          `json:"matched_edges,omitempty"`
	FormulaSize   int               `json:"formula_size"`
}

// sweepLine is one NDJSON line of POST /v1/corpus/query: a result row, or
// the final summary.
type sweepLine struct {
	ID            string        `json:"id"`
	Name          string        `json:"name"`
	Company       string        `json:"company,omitempty"`
	Verdict       string        `json:"verdict,omitempty"`
	ConditionalOn []string      `json:"conditional_on,omitempty"`
	Error         string        `json:"error,omitempty"`
	Summary       *sweepSummary `json:"summary,omitempty"`
}

type sweepSummary struct {
	Policies   int   `json:"policies"`
	Valid      int   `json:"valid"`
	Invalid    int   `json:"invalid"`
	Unknown    int   `json:"unknown"`
	Errors     int   `json:"errors"`
	Elapsed    int64 `json:"elapsed_ms"`
	Incomplete bool  `json:"incomplete,omitempty"`
}

// sweep runs one corpus query; see parseSweep for the checks.
func (s *stack) sweep(ctx context.Context, question string, policies int) ([]sweepLine, sweepSummary, error) {
	b, err := s.doOK(ctx, http.MethodPost, "/v1/corpus/query", map[string]string{"query": question})
	if err != nil {
		return nil, sweepSummary{}, err
	}
	return parseSweep(b, policies)
}

// parseSweep reads a corpus query's NDJSON and checks that it holds one
// error-free row per policy and a summary consistent with the rows.
func parseSweep(b []byte, policies int) ([]sweepLine, sweepSummary, error) {
	var sum sweepSummary
	var rows []sweepLine
	seen := map[string]bool{}
	tally := sweepSummary{Policies: policies}
	gotSummary := false
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var l sweepLine
		if err := dec.Decode(&l); err != nil {
			return nil, sum, fmt.Errorf("sweep line: %w", err)
		}
		if l.Summary != nil {
			sum, gotSummary = *l.Summary, true
			continue
		}
		if gotSummary || seen[l.ID] {
			return nil, sum, fmt.Errorf("sweep: unexpected row %q", l.ID)
		}
		seen[l.ID] = true
		switch l.Verdict {
		case "VALID":
			tally.Valid++
		case "INVALID":
			tally.Invalid++
		case "UNKNOWN":
			tally.Unknown++
		default:
			tally.Errors++
		}
		rows = append(rows, l)
	}
	switch {
	case !gotSummary:
		return nil, sum, errors.New("sweep: no summary line")
	case len(rows) != policies:
		return nil, sum, fmt.Errorf("sweep: %d rows for %d policies", len(rows), policies)
	case tally.Errors > 0 || sum.Incomplete:
		return nil, sum, fmt.Errorf("sweep: %d policy errors, incomplete=%v", tally.Errors, sum.Incomplete)
	}
	tally.Elapsed = sum.Elapsed
	if sum != tally {
		return nil, sum, fmt.Errorf("sweep: summary %+v disagrees with rows %+v", sum, tally)
	}
	return rows, sum, nil
}

// scrape is one reading of the Prometheus text from GET /metrics (or the
// same shape built from an in-process registry), keyed by series id.
type scrape map[string]float64

func (s *stack) scrape(ctx context.Context) (scrape, error) {
	b, err := s.doOK(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	m := scrape{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// fromSnapshot renders an in-process registry snapshot like a scrape.
func fromSnapshot(snap obs.Snapshot) scrape {
	m := scrape{}
	for id, v := range snap.Counters {
		m[id] = float64(v)
	}
	for id, v := range snap.Gauges {
		m[id] = v
	}
	for id, h := range snap.Histograms {
		name, labels := id, ""
		if i := strings.IndexByte(id, '{'); i >= 0 {
			name, labels = id[:i], id[i:]
		}
		m[name+"_sum"+labels] = h.Sum
		m[name+"_count"+labels] = float64(h.Count)
	}
	return m
}

// sum adds every series of family name whose labels contain each of the
// given label fragments (e.g. `phase="solve"`).
func (m scrape) sum(name string, labels ...string) float64 {
	var t float64
	for id, v := range m {
		fam, lab := id, ""
		if i := strings.IndexByte(id, '{'); i >= 0 {
			fam, lab = id[:i], id[i:]
		}
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lab, l)
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta is after − before for one family selection.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// meanMS is a histogram's mean over a window, in milliseconds.
func meanMS(before, after scrape, name string, labels ...string) float64 {
	return ratio(delta(before, after, name+"_sum", labels...)*1000, delta(before, after, name+"_count", labels...))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ingestRun is one ingest.Run over a corpus into a fresh disk store.
type ingestRun struct {
	sum     ingest.Summary
	elapsed time.Duration
	// storeBytes is the size of the store directory after close.
	storeBytes int64
	metrics    scrape
}

// runIngest ingests corpusDir into a fresh store at dataDir with nproc
// workers and the store's default flush policy (one fsync per 16-policy
// batch), then closes the store.
func runIngest(ctx context.Context, corpusDir, dataDir string, want int) (ingestRun, error) {
	var r ingestRun
	p, err := core.New(core.Options{})
	if err != nil {
		return r, err
	}
	disk, err := store.OpenDisk(dataDir, store.Options{Obs: p.Obs()})
	if err != nil {
		return r, err
	}
	start := time.Now()
	r.sum, err = ingest.Run(ctx, p, disk, corpusDir, ingest.Options{Workers: runtime.NumCPU(), Obs: p.Obs()})
	r.elapsed = time.Since(start)
	r.metrics = fromSnapshot(p.Metrics())
	if cerr := disk.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		r.storeBytes, err = dirSize(dataDir)
	}
	switch {
	case err != nil:
		return r, fmt.Errorf("ingest: %w", err)
	case len(r.sum.Failed) > 0:
		return r, fmt.Errorf("ingest: %d files failed, first: %v", len(r.sum.Failed), r.sum.Failed[0])
	case r.sum.Ingested != r.sum.Discovered || r.sum.Discovered != want:
		return r, fmt.Errorf("ingest: ingested %d of %d discovered, want %d", r.sum.Ingested, r.sum.Discovered, want)
	}
	return r, nil
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// setupResult is the outcome of the repeated set-up: the server of the
// last rep before the timed phase stays up for it.
type setupResult struct {
	st      *stack
	dataDir string
	// setupS and ingestRate hold one value per ingest, coldSweepMS one
	// per boot.
	setupS, ingestRate, coldSweepMS []float64
	lastIngest                      ingestRun
	// server metrics of the kept boot right after boot and after its
	// cold sweep
	booted, swept scrape
	// ids maps policy names to store IDs, as the cold sweep reported them.
	ids map[string]string

	corpusDir string
	docs      []policyDoc
	// check verifies each cold sweep's rows.
	check func(rows []sweepLine, q string) error
}

// A run sets up setupReps times before the timed phase and, unless
// traced, setupReps times after it, so the set-up samples span the run
// rather than one stretch of it (the host's speed drifts over tens of
// seconds); each rep ingests once and boots bootsPerIngest servers on the
// ingested store in turn. Set-up time, ingest rate and the cold sweep are
// reported as medians over every rep.
const (
	setupReps      = 3
	bootsPerIngest = 2
)

// setUp runs the reps before the timed phase and keeps the last boot's
// server up; check verifies each cold sweep's rows.
func setUp(ctx context.Context, e *env, corpusDir string, docs []policyDoc, check func(rows []sweepLine, q string) error) (*setupResult, error) {
	res := &setupResult{corpusDir: corpusDir, docs: docs, check: check}
	for n := 0; n < setupReps; n++ {
		if err := res.rep(ctx, e, n, n == setupReps-1); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// after runs the reps that follow the timed phase.
func (res *setupResult) after(ctx context.Context, e *env) error {
	for n := setupReps; n < 2*setupReps; n++ {
		if err := res.rep(ctx, e, n, false); err != nil {
			return err
		}
	}
	return nil
}

// rep ingests the corpus into a fresh store and boots servers on it,
// timing the first corpus query after each boot. Set-up time is ingest +
// store close + first boot; the cold sweep is timed on its own. With keep
// the last boot's server, store and metrics are kept for the timed phase;
// otherwise the store is removed.
func (res *setupResult) rep(ctx context.Context, e *env, n int, keep bool) error {
	dataDir := filepath.Join(e.dir, fmt.Sprintf("data-%d", n))
	start := time.Now()
	ing, err := runIngest(ctx, res.corpusDir, dataDir, len(res.docs))
	e.count(err)
	if err != nil {
		return err
	}
	res.ingestRate = append(res.ingestRate, float64(len(res.docs))/ing.elapsed.Seconds())
	for b := 0; b < bootsPerIngest; b++ {
		st, err := boot(dataDir, e.conns)
		if err != nil {
			return err
		}
		if b == 0 {
			res.setupS = append(res.setupS, time.Since(start).Seconds())
		}
		rows, booted, swept, err := res.coldSweep(ctx, e, st)
		if err != nil {
			return errors.Join(err, st.close())
		}
		if keep && b == bootsPerIngest-1 {
			res.st, res.dataDir, res.lastIngest = st, dataDir, ing
			res.booted, res.swept = booted, swept
			res.ids = map[string]string{}
			for _, r := range rows {
				res.ids[r.Name] = r.ID
			}
			return nil
		}
		if err := st.close(); err != nil {
			return err
		}
	}
	return os.RemoveAll(dataDir)
}

// coldSweep times and checks the first corpus query after a boot,
// scraping the server's metrics around it.
func (res *setupResult) coldSweep(ctx context.Context, e *env, st *stack) (rows []sweepLine, booted, swept scrape, err error) {
	booted, err = st.scrape(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	start := time.Now()
	rows, _, err = st.sweep(ctx, coldQuestion, len(res.docs))
	res.coldSweepMS = append(res.coldSweepMS, ms(time.Since(start)))
	if err == nil {
		err = res.check(rows, coldQuestion)
	}
	e.count(err)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cold sweep: %w", err)
	}
	swept, err = st.scrape(ctx)
	return rows, booted, swept, err
}

// checkRowsAgainst returns a cold-sweep check that compares each row with
// the reference for question index q of its policy.
func checkRowsAgainst(docs []policyDoc, refs referenceSet) func([]sweepLine, string) error {
	byName := map[string]int{}
	for i, d := range docs {
		byName[d.Name] = i
	}
	return func(rows []sweepLine, question string) error {
		for _, r := range rows {
			p, ok := byName[r.Name]
			if !ok {
				return fmt.Errorf("sweep row for unknown policy %q", r.Name)
			}
			q := indexOf(docs[p].Questions, question)
			if q < 0 {
				return fmt.Errorf("sweep question %q has no reference", question)
			}
			if got := (answer{r.Verdict, r.ConditionalOn}); !refs.accepts(p, q, got) {
				return fmt.Errorf("%s: %q: got %+v, want %+v", r.Name, question, got, refs[p][0].answer(q))
			}
		}
		return nil
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				break
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// procStats reads the process-wide counters the runtime layer metrics
// are deltas of.
type procStats struct {
	allocBytes, gcCPU, totalCPU float64
}

func readProc() procStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return procStats{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}
