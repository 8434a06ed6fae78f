package main

// Reference verdicts. Every (policy text, question) pair a workload can
// ask, in a single-policy query or a corpus sweep, has its verdict, contradiction flag and conditional_on list
// computed in-process through core.Pipeline.Ask on a pipeline with the
// result cache off, and checked in under reference/. A change that moves
// any verdict therefore fails the benchmark instead of quietly changing
// what it measures. Regenerate with: go run . -write-reference reference

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"github.com/privacy-quagmire/quagmire/internal/core"
	"github.com/privacy-quagmire/quagmire/internal/query"
)

//go:embed reference/*.json
var referenceFS embed.FS

// refVariant is one text state of a policy. Variant "a" is the ingested
// text; a written policy adds "b" (a updated to Alt) and "a2" (b updated
// back to Text) — incremental updates are not guaranteed to reproduce a
// fresh analysis, so a policy that alternates may serve either.
type refVariant struct {
	Name    string `json:"name"`
	Variant string `json:"variant"`
	SHA256  string `json:"sha256"`
	// Verdicts holds one letter per question: V(ALID), I(NVALID), U(NKNOWN).
	Verdicts      string              `json:"verdicts"`
	ConditionalOn map[string][]string `json:"conditional_on,omitempty"`
	Contradiction []int               `json:"contradiction,omitempty"`
}

type refFile struct {
	Workload string       `json:"workload"`
	Policies []refVariant `json:"policies"`
}

// answer is the checked part of one verdict.
type answer struct {
	Verdict       string
	ConditionalOn []string
}

// referenceSet answers "is this a correct response?" per policy index.
type referenceSet [][]refVariant

// accepts reports whether verdict/cond match any variant the policy may
// be serving for question q.
func (rs referenceSet) accepts(policy, q int, got answer) bool {
	for _, v := range rs[policy] {
		if v.answer(q).equal(got) {
			return true
		}
	}
	return false
}

// covers reports whether the recorded variants match d's current texts
// and question list.
func covers(vs []refVariant, d policyDoc) bool {
	want := 1
	if d.Alt != "" {
		want = 3
	}
	if len(vs) != want || vs[0].SHA256 != textHash(d.Text) || (d.Alt != "" && vs[1].SHA256 != textHash(d.Alt)) {
		return false
	}
	for _, v := range vs {
		if len(v.Verdicts) != len(d.Questions) {
			return false
		}
	}
	return true
}

func (v refVariant) answer(q int) answer {
	a := answer{Verdict: verdictName(v.Verdicts[q])}
	a.ConditionalOn = v.ConditionalOn[strconv.Itoa(q)]
	return a
}

func (a answer) equal(b answer) bool {
	return a.Verdict == b.Verdict && slices.Equal(a.ConditionalOn, b.ConditionalOn)
}

func verdictName(c byte) string {
	switch c {
	case 'V':
		return string(query.Valid)
	case 'I':
		return string(query.Invalid)
	default:
		return string(query.Unknown)
	}
}

func textHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// loadReference returns the checked-in reference for docs. Every doc must
// be present with a matching text hash; a stale table is an error, never a
// silent recompute. Smoke runs (allowCompute) compute missing entries
// in-process instead, since their shrunken corpora are not checked in.
func loadReference(ctx context.Context, workload string, docs []policyDoc, allowCompute bool) (referenceSet, error) {
	var f refFile
	if b, err := referenceFS.ReadFile("reference/" + workload + ".json"); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("reference %s: %w", workload, err)
		}
	}
	byName := map[string][]refVariant{}
	for _, v := range f.Policies {
		byName[v.Name] = append(byName[v.Name], v)
	}
	rs := make(referenceSet, len(docs))
	var missing []int
	for i, d := range docs {
		vs := byName[d.Name]
		if !covers(vs, d) {
			missing = append(missing, i)
			continue
		}
		rs[i] = vs
	}
	if len(missing) == 0 {
		return rs, nil
	}
	if !allowCompute {
		return nil, fmt.Errorf("reference/%s.json is stale for %d of %d policies (first: %s); regenerate with -write-reference",
			workload, len(missing), len(docs), docs[missing[0]].Name)
	}
	computed, err := computeReference(ctx, docs, missing)
	if err != nil {
		return nil, err
	}
	for _, i := range missing {
		rs[i] = computed[i]
	}
	return rs, nil
}

// computeReference answers every question of docs[idx] through
// core.Pipeline.Ask with the result cache off, one pipeline per worker.
func computeReference(ctx context.Context, docs []policyDoc, idx []int) (referenceSet, error) {
	rs := make(referenceSet, len(docs))
	jobs := make(chan int)
	errs := make([]error, len(docs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := core.New(core.Options{SMTCacheSize: -1, Workers: 1})
			for i := range jobs {
				if err == nil {
					rs[i], errs[i] = referenceVariants(ctx, p, docs[i])
				} else {
					errs[i] = err
				}
			}
		}()
	}
	for _, i := range idx {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return rs, errors.Join(errs...)
}

// referenceVariants analyzes d.Text and, for a written policy, walks the
// PUT alternation Text → Alt → Text → Alt → Text the way the server does
// (incremental core.Pipeline.Update), checking that it settles into the
// variants recorded.
func referenceVariants(ctx context.Context, p *core.Pipeline, d policyDoc) ([]refVariant, error) {
	a, err := p.Analyze(ctx, d.Text)
	if err != nil {
		return nil, fmt.Errorf("%s: analyze: %w", d.Name, err)
	}
	va, err := variant(ctx, p, d, "a", d.Text, a)
	if err != nil || d.Alt == "" {
		return []refVariant{va}, err
	}
	out := []refVariant{va}
	prev := a
	texts := []string{d.Alt, d.Text, d.Alt, d.Text}
	names := []string{"b", "a2", "b", "a2"}
	for step, text := range texts {
		next, _, _, err := p.Update(ctx, prev, text)
		if err != nil {
			return nil, fmt.Errorf("%s: update %d: %w", d.Name, step, err)
		}
		v, err := variant(ctx, p, d, names[step], text, next)
		if err != nil {
			return nil, err
		}
		if step < 2 {
			out = append(out, v)
		} else if want := out[step-1]; v.Verdicts != want.Verdicts || !mapsEqual(v.ConditionalOn, want.ConditionalOn) {
			return nil, fmt.Errorf("%s: alternating updates do not settle (step %d differs from %s)", d.Name, step, want.Variant)
		}
		prev = next
	}
	return out, nil
}

func variant(ctx context.Context, p *core.Pipeline, d policyDoc, name, text string, a *core.Analysis) (refVariant, error) {
	v := refVariant{Name: d.Name, Variant: name, SHA256: textHash(text), ConditionalOn: map[string][]string{}}
	verdicts := make([]byte, len(d.Questions))
	for q, question := range d.Questions {
		res, err := p.Ask(ctx, a, question)
		if err != nil {
			return v, fmt.Errorf("%s/%s: %q: %w", d.Name, name, question, err)
		}
		verdicts[q] = string(res.Verdict)[0]
		if len(res.ConditionalOn) > 0 {
			v.ConditionalOn[strconv.Itoa(q)] = res.ConditionalOn
		}
		if res.Contradiction {
			v.Contradiction = append(v.Contradiction, q)
		}
	}
	v.Verdicts = string(verdicts)
	return v, nil
}

func mapsEqual(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !slices.Equal(v, b[k]) {
			return false
		}
	}
	return true
}

// writeReferences regenerates the checked-in tables into dir.
func writeReferences(ctx context.Context, dir string) error {
	for _, w := range []struct {
		name string
		docs []policyDoc
	}{{"interactive", interactiveCorpus(1)}, {"solver-cold", solverColdCorpus(1)}} {
		idx := make([]int, len(w.docs))
		for i := range idx {
			idx[i] = i
		}
		rs, err := computeReference(ctx, w.docs, idx)
		if err != nil {
			return err
		}
		f := refFile{Workload: w.name}
		for _, vs := range rs {
			f.Policies = append(f.Policies, vs...)
		}
		b, err := json.MarshalIndent(f, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w.name+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
