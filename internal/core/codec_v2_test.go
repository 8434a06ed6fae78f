package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"github.com/privacy-quagmire/quagmire/internal/corpus"
	"github.com/privacy-quagmire/quagmire/internal/query"
)

// sharedPipeline builds a pipeline whose engines run the shared
// incremental core.
func sharedPipeline(t testing.TB) *Pipeline {
	t.Helper()
	p, err := New(Options{SharedSolverCore: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCodecV1StillDecodes: a v1 payload (codec 1) must decode on a
// current build, and the engine builds its core from the knowledge graph.
func TestCodecV1StillDecodes(t *testing.T) {
	ctx := context.Background()
	p := sharedPipeline(t)
	a, err := p.Analyze(ctx, corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	// Downgrade to the v1 layout: codec 1.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["codec"] = json.RawMessage("1")
	v1, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}

	p2 := sharedPipeline(t)
	loaded, err := p2.DecodeAnalysis(v1)
	if err != nil {
		t.Fatalf("v1 payload rejected: %v", err)
	}
	res, err := loaded.Engine.Ask(ctx, "Does Acme share my email address with advertising partners?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != query.Valid {
		t.Errorf("v1-decoded verdict = %s, want %s", res.Verdict, query.Valid)
	}
	if builds := p2.Obs().Counter("quagmire_ground_core_builds_total").Value(); builds != 1 {
		t.Errorf("core builds = %d, want 1", builds)
	}
}

// sharedCorePayloadFixture is corpus.Mini() encoded by a shared-core
// pipeline on a build that persisted the solver-core image in codec v2: it
// carries a "core" section this build no longer reads.
const sharedCorePayloadFixture = "testdata/mini-shared-core-codec2.json"

// TestCodecV2RestoresWithoutSharedCore is the differential reopen test for
// the codec: payloads of every provenance — encoded by this build, and the
// checked-in payload whose "core" section an older build wrote — decode on
// default and shared-core pipelines into engines whose verdicts match a
// fresh Analyze of the same policy. A default pipeline never touches the
// shared-core machinery; a shared-core one builds its core from the
// knowledge graph, once.
func TestCodecV2RestoresWithoutSharedCore(t *testing.T) {
	ctx := context.Background()
	questions := []string{
		"Does Acme sell my personal information?",
		"Does Acme share my email address with advertising partners?",
		"Does Acme collect my location?",
		"Does Acme share my personal information with service providers?",
	}
	fixture, err := os.ReadFile(sharedCorePayloadFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fixture, []byte(`"core":`)) {
		t.Fatal("fixture lost its core section; it no longer pins the old shared-core layout")
	}
	for _, shared := range []bool{false, true} {
		newPipeline := func() *Pipeline {
			p, err := New(Options{SharedSolverCore: shared})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		fresh, err := newPipeline().Analyze(ctx, corpus.Mini())
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]query.Verdict{}
		for _, q := range questions {
			res, err := fresh.Engine.Ask(ctx, q)
			if err != nil {
				t.Fatalf("shared=%v: fresh %q: %v", shared, q, err)
			}
			want[q] = res.Verdict
		}
		if want[questions[0]] != query.Invalid || want[questions[1]] != query.Valid {
			t.Fatalf("shared=%v: fresh verdicts drifted: %v", shared, want)
		}
		encoded, err := EncodeAnalysis(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			"current payload":     encoded,
			"shared-core payload": fixture,
		} {
			p := newPipeline()
			loaded, err := p.DecodeAnalysis(data)
			if err != nil {
				t.Fatalf("shared=%v: %s: decode: %v", shared, name, err)
			}
			if loaded.Engine == nil {
				t.Fatalf("shared=%v: %s: decoded analysis has no engine", shared, name)
			}
			for _, q := range questions {
				res, err := loaded.Engine.Ask(ctx, q)
				if err != nil {
					t.Fatalf("shared=%v: %s: %q: %v", shared, name, q, err)
				}
				if res.Verdict != want[q] {
					t.Errorf("shared=%v: %s: %q verdict = %s, fresh Analyze says %s", shared, name, q, res.Verdict, want[q])
				}
			}
			wantBuilds := uint64(0)
			if shared {
				wantBuilds = 1
			}
			if builds := p.Obs().Counter("quagmire_ground_core_builds_total").Value(); builds != wantBuilds {
				t.Errorf("shared=%v: %s: core builds = %d, want %d", shared, name, builds, wantBuilds)
			}
		}
	}
}

// TestCorruptPayloadsErrorNotPanic: hostile or damaged payload bytes must
// surface as decode errors — the signal the serving layer quarantines
// on — never as a panic or a half-built analysis.
func TestCorruptPayloadsErrorNotPanic(t *testing.T) {
	p := sharedPipeline(t)
	a, err := p.Analyze(context.Background(), corpus.Mini())
	if err != nil {
		t.Fatal(err)
	}
	valid, err := EncodeAnalysis(a)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"not json":         []byte("\xff\xfe:definitely-not-json"),
		"wrong shape":      []byte(`[1,2,3]`),
		"truncated":        valid[:len(valid)/2],
		"future codec":     []byte(`{"codec":99}`),
		"zero codec":       []byte(`{"codec":0}`),
		"missing sections": []byte(`{"codec":2}`),
	}
	for name, data := range cases {
		if _, err := p.DecodeAnalysis(data); err == nil {
			t.Errorf("%s: decode accepted a corrupt payload", name)
		}
		if _, err := DecodeAnalysisEnvelope(data); err == nil {
			t.Errorf("%s: envelope decode accepted a corrupt payload", name)
		}
		if _, err := DecodeExtraction(data); err == nil {
			t.Errorf("%s: extraction decode accepted a corrupt payload", name)
		}
	}
}
