package main

// Workload inputs. Every function here is a pure function of its
// arguments: the same seed gives byte-identical corpora and request
// schedules (main_test.go checks this).

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
)

// corpusSeed fixes every workload's corpus, so the checked-in reference
// tables cover every run and seeds differ only in their request streams
// (arrivals, draws, question orders), not in what the corpus costs.
const corpusSeed = 20251

const (
	interactivePolicies = 64
	// writtenEvery marks every 8th interactive policy as one that PUTs
	// alternate between two texts.
	writtenEvery     = 8
	solverLargeCount = 2
)

// policyDoc is one policy file of a workload corpus.
type policyDoc struct {
	Name    string // corpus-relative file name, which ingest stores as the policy name
	Company string
	Text    string
	// Alt is the second text PUT alternates with; empty for policies that
	// are never written.
	Alt string
	// Questions is the per-policy question list: the workload's question
	// grid for this company, then coldQuestion.
	Questions []string
	// Weight is the policy's share of solver-cold's schedule.
	Weight int
}

// dataTypes and templates span the interactive question grid
// (12 × 6 = 72 questions per policy).
var dataTypes = []string{
	"email address", "phone number", "location history", "payment information",
	"contact list", "browsing history", "device identifier", "photo",
	"purchase history", "date of birth", "ip address", "biometric identifier",
}

var templates = []string{
	"Does %s collect my %s?",
	"Does %s share my %s with advertising partners?",
	"Does %s sell my %s?",
	"Does %s share my %s with analytics providers?",
	"Does %s use my %s?",
	"Does %s disclose my %s to data brokers?",
}

// coldDataTypes widen the solver-cold grid to 54 × 6 = 324 questions per
// policy, all from the corpus vocabulary, so a run never repeats one; the
// full schedule is 972 queries, more than a 35 s run reaches.
var coldDataTypes = append(append([]string{}, dataTypes...),
	"gps location", "search history", "voice command", "message content",
	"friend list", "credit card number", "watch history", "faceprint",
	"postal address", "usage data", "advertising identifier", "health metric",
	"gender", "language", "age", "password", "profile image", "transaction record",
	"billing address", "cookie", "crash log", "audio recording", "calendar entry", "survey response",
	"browser type", "operating system", "pixel tag", "performance log", "battery level",
	"screen resolution", "mobile carrier", "approximate location", "click behavior",
	"session duration", "app activity", "video", "follower list", "voiceprint",
	"keystroke pattern", "shipping address", "fitness activity", "sleep pattern",
)

// coldWarmupDataTypes are disjoint from coldDataTypes: solver-cold's
// untimed warm-up asks about them, so it warms shared state (LLM and
// embedding caches, engines) without answering any timed question.
var coldWarmupDataTypes = []string{"username"}

// coldQuestion is every cold sweep's question. It names no company, so
// one corpus query can ask it of every policy; every reference table
// covers it.
const coldQuestion = "Do you share my email address with advertising partners?"

// grid is a policy's question list: templates × data, then coldQuestion.
func grid(company string, data []string) []string {
	out := make([]string, 0, len(data)*len(templates)+1)
	for _, d := range data {
		for _, t := range templates {
			out = append(out, fmt.Sprintf(t, company, d))
		}
	}
	return append(out, coldQuestion)
}

// gridSize is the number of grid questions per policy, without
// coldQuestion.
func gridSize(p policyDoc) int { return len(p.Questions) - 1 }

// generatedConfig draws a policy shape from the ranges corpus.WriteCorpus
// uses (8–33 practice statements).
func generatedConfig(r *rand.Rand, company string) corpus.Config {
	return corpus.Config{
		Company:            company,
		Seed:               r.Int63(),
		PracticeStatements: 8 + r.Intn(26),
		BoilerplateEvery:   2 + r.Intn(4),
		DataRichness:       8 + r.Intn(40),
		EntityRichness:     8 + r.Intn(60),
	}
}

// interactiveCorpus is the fixed 64-policy corpus of the interactive
// workload; scale < 1 shrinks it for smoke tests.
func interactiveCorpus(scale float64) []policyDoc {
	n := scaled(interactivePolicies, scale, writtenEvery+1)
	r := rand.New(rand.NewSource(corpusSeed))
	docs := make([]policyDoc, n)
	for i := range docs {
		company := fmt.Sprintf("Acme%02d", i)
		cfg := generatedConfig(r, company)
		d := policyDoc{Name: fmt.Sprintf("%04d-%s.txt", i, strings.ToLower(company)), Company: company, Text: corpus.Generate(cfg)}
		if i%writtenEvery == 0 {
			cfg.Seed++
			d.Alt = corpus.Generate(cfg)
		}
		d.Questions = grid(company, dataTypes)
		docs[i] = d
	}
	return docs
}

// solverColdCorpus is the bundled TikTak and MetaBook policies plus two
// large generated ones; scale < 1 drops MetaBook and shrinks the others.
// The bundled policies weigh double in the schedule: their questions take
// tens to hundreds of milliseconds, most generated ones a few.
func solverColdCorpus(scale float64) []policyDoc {
	docs := []policyDoc{{Name: "tiktak.txt", Company: "TikTak", Text: corpus.TikTak(), Weight: 2}}
	if scale >= 1 {
		docs = append(docs, policyDoc{Name: "metabook.txt", Company: "MetaBook", Text: corpus.MetaBook(), Weight: 2})
	}
	r := rand.New(rand.NewSource(corpusSeed + 1))
	for i := 0; i < solverLargeCount; i++ {
		company := fmt.Sprintf("Largo%d", i)
		docs = append(docs, policyDoc{
			Name: fmt.Sprintf("large-%d.txt", i), Company: company, Weight: 1,
			Text: corpus.Generate(corpus.Config{
				Company: company, Seed: r.Int63(),
				PracticeStatements: scaled(150, scale, 8), BoilerplateEvery: 3,
				DataRichness: 200, EntityRichness: 200,
			}),
		})
	}
	for i := range docs {
		docs[i].Questions = grid(docs[i].Company, coldDataTypes)
	}
	return docs
}

// writeCorpus writes docs as files under dir.
func writeCorpus(dir string, docs []policyDoc) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range docs {
		if err := os.WriteFile(filepath.Join(dir, d.Name), []byte(d.Text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func scaled(n int, scale float64, floor int) int {
	if scale >= 1 {
		return n
	}
	return max(floor, int(math.Round(float64(n)*scale)))
}

// kind is a request class.
type kind int

const (
	kindQuery  kind = iota // POST /v1/policies/{id}/query
	kindRead               // GET policy, edges or vague
	kindUpdate             // PUT /v1/policies/{id}
)

func (k kind) String() string {
	return [...]string{"query", "read", "update"}[k]
}

// request is one scheduled operation.
type request struct {
	// At is when an open-loop request falls due, from the start of its
	// phase; closed loops leave it zero.
	At     time.Duration
	Kind   kind
	Policy int // index into the workload's docs
	// Q indexes the policy's Questions.
	Q int
	// Read is the GET path suffix ("", "/edges" or "/vague").
	Read string
	// Version is the version number an update must produce.
	Version int
}

// readPaths are the interactive GET targets.
var readPaths = []string{"", "/edges", "/vague"}

// Interactive traffic mix and rate.
const (
	// interactiveRate is the open-loop arrival rate in requests per
	// second: about a sixth of the ~3,700 req/s the server sustains
	// closed-loop with two connections on a 2-vCPU host. At 900 req/s a
	// neighbour taking one vCPU could push the server into a growing
	// queue (query p50 from 1.6 to 30 ms); at 600 it stays under 3 ms.
	interactiveRate = 600.0
	queryShare      = 0.70
	readShare       = 0.29 // the remaining 1% are updates
	// zipfS skews the (policy, question) popularity. It is calibrated to
	// the 85-92% result-cache hit share seen on this mix: over three seeds
	// the timed phase's smt.cache_hit_ratio read 0.896-0.903 at s = 1.02,
	// 0.904-0.926 at 1.07 and 0.949-0.960 at 1.2. rand.Zipf needs s > 1.
	zipfS = 1.02
)

// interactiveGen draws the interactive open-loop schedule: Poisson
// arrivals, a Zipf-skewed (policy, question) popularity over a seeded
// permutation of all pairs, uniform reads, and updates that walk the
// written policies round-robin so two never race on one policy.
type interactiveGen struct {
	r       *rand.Rand
	zipf    *rand.Zipf
	pairs   [][2]int
	docs    []policyDoc
	written []int
	writes  int
	version map[int]int
	// t is the last released arrival; pending the next one, drawn but
	// beyond the current phase.
	t, pending time.Duration
	// noUpdates turns update draws into reads (the warm-up stream).
	noUpdates bool
}

// The popularity ranking is part of the fixed corpus (drawn from
// corpusSeed), so seeds differ only in arrivals and draws.
func newInteractiveGen(docs []policyDoc, seed int64) *interactiveGen {
	r := rand.New(rand.NewSource(seed))
	g := &interactiveGen{r: r, docs: docs, version: map[int]int{}}
	for p, d := range docs {
		for q := 0; q < gridSize(d); q++ {
			g.pairs = append(g.pairs, [2]int{p, q})
		}
		if d.Alt != "" {
			g.written = append(g.written, p)
			g.version[p] = 1
		}
	}
	rank := rand.New(rand.NewSource(corpusSeed))
	rank.Shuffle(len(g.pairs), func(i, j int) { g.pairs[i], g.pairs[j] = g.pairs[j], g.pairs[i] })
	g.zipf = rand.NewZipf(r, zipfS, 1, uint64(len(g.pairs)-1))
	return g
}

// next returns the next request if it falls due before limit. A request
// past the limit stays pending for the next phase, so phase boundaries
// never change the sequence.
func (g *interactiveGen) next(limit time.Duration) (request, bool) {
	if g.pending == 0 {
		g.pending = g.t + time.Duration(g.r.ExpFloat64()/interactiveRate*float64(time.Second))
	}
	if g.pending >= limit {
		return request{}, false
	}
	g.t, g.pending = g.pending, 0
	u := g.r.Float64()
	switch {
	case u < queryShare:
		pq := g.pairs[g.zipf.Uint64()]
		return request{At: g.t, Kind: kindQuery, Policy: pq[0], Q: pq[1]}, true
	case u < queryShare+readShare || g.noUpdates:
		return request{At: g.t, Kind: kindRead, Policy: g.r.Intn(len(g.docs)), Read: readPaths[g.r.Intn(len(readPaths))]}, true
	default:
		p := g.written[g.writes%len(g.written)]
		g.writes++
		g.version[p]++
		return request{At: g.t, Kind: kindUpdate, Policy: p, Version: g.version[p]}, true
	}
}

// restart rebases arrival times on a new phase start.
func (g *interactiveGen) restart() {
	if g.pending > 0 {
		g.pending -= g.t
	}
	g.t = 0
}

// coldSchedule is solver-cold's question order. Query cost depends mostly
// on the policy and the template, and much on the data type too, so the
// questions are fixed and the seed only orders them. Each round asks every
// policy Weight questions; each policy walks its templates in turn, each
// over a fixed permutation of the data types. The seed shuffles the order
// within each round and the rounds within each block of coldBlockRounds,
// so every block holds the same questions whatever the seed: a run of a
// given speed measures the same sample, and seeds differ in order and in
// which queries the two clients run side by side. The schedule ends with
// the last full round, so a server fast enough to finish it ends the run
// early instead of running on with a different mix. No (policy, question)
// repeats.
func coldSchedule(docs []policyDoc, seed int64) []request {
	fixed := rand.New(rand.NewSource(corpusSeed + 3))
	orders := make([][]int, len(docs))
	maxW := 0
	for p, d := range docs {
		nData := gridSize(d) / len(templates)
		perms := make([][]int, len(templates))
		for t := range perms {
			perms[t] = fixed.Perm(nData)
		}
		for i := 0; i < nData; i++ {
			for t := range templates {
				orders[p] = append(orders[p], perms[t][i]*len(templates)+t)
			}
		}
		maxW = max(maxW, d.Weight)
	}
	rounds := len(orders[0]) / docs[0].Weight
	for p, d := range docs {
		rounds = min(rounds, len(orders[p])/d.Weight)
	}
	r := rand.New(rand.NewSource(seed))
	all := make([][]request, rounds)
	next := make([]int, len(docs))
	for i := range all {
		for k := 0; k < maxW; k++ {
			for p, d := range docs {
				if k < d.Weight {
					all[i] = append(all[i], request{Kind: kindQuery, Policy: p, Q: orders[p][next[p]]})
					next[p]++
				}
			}
		}
		r.Shuffle(len(all[i]), func(a, b int) { all[i][a], all[i][b] = all[i][b], all[i][a] })
	}
	var out []request
	for b := 0; b < rounds; b += coldBlockRounds {
		block := all[b:min(b+coldBlockRounds, rounds)]
		r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, round := range block {
			out = append(out, round...)
		}
	}
	return out
}

// coldBlockRounds is the number of rounds whose order the seed shuffles.
const coldBlockRounds = 4

// coldWarmup is solver-cold's untimed warm-up: per policy, questions
// about coldWarmupDataTypes, which the timed schedule never uses.
func coldWarmup(docs []policyDoc) [][]string {
	out := make([][]string, len(docs))
	for i, d := range docs {
		out[i] = grid(d.Company, coldWarmupDataTypes)[:len(coldWarmupDataTypes)*len(templates)]
	}
	return out
}
