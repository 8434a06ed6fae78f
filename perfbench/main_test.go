package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, code has %d", names, len(workloads))
	}
	check := func(group string, spec []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code []metricDef) {
		var got, want []string
		for _, m := range spec {
			want = append(want, m.Name+" "+m.Unit)
		}
		for _, d := range code {
			got = append(got, d.name+" "+d.unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics: code %v, BENCHMARK.json %v", group, got, want)
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

func TestSameSeedSameInputs(t *testing.T) {
	fingerprint := func(seed int64) string {
		var b strings.Builder
		docs := interactiveCorpus(1)
		g := newInteractiveGen(docs, seed)
		for i := 0; i < 5000; i++ {
			r, _ := g.next(1 << 62)
			fmt.Fprintf(&b, "%+v\n", r)
		}
		for _, r := range coldSchedule(solverColdCorpus(1), seed) {
			fmt.Fprintf(&b, "%+v\n", r)
		}
		for _, d := range append(docs, solverColdCorpus(1)...) {
			fmt.Fprintf(&b, "%s %s %s %q\n", d.Name, textHash(d.Text), textHash(d.Alt), d.Questions)
		}
		return b.String()
	}
	a, b, c := fingerprint(7), fingerprint(7), fingerprint(8)
	if a != b {
		t.Fatal("the same seed gave different inputs")
	}
	if a == c {
		t.Fatal("different seeds gave identical request schedules")
	}

}

func TestColdScheduleNeverRepeats(t *testing.T) {
	docs := solverColdCorpus(1)
	sched := coldSchedule(docs, 3)
	seen := map[[2]int]bool{}
	for _, r := range sched {
		k := [2]int{r.Policy, r.Q}
		if seen[k] {
			t.Fatalf("question %v asked twice", k)
		}
		seen[k] = true
	}
	weights := 0
	for _, d := range docs {
		weights += d.Weight
	}
	// TikTak and MetaBook weigh 2, so the schedule ends when their grids do.
	if want := gridSize(docs[0]) / 2 * weights; len(sched) != want {
		t.Fatalf("schedule has %d questions, want %d", len(sched), want)
	}
	// Another seed asks the same questions block by block, in another order.
	other := coldSchedule(docs, 4)
	if reflect.DeepEqual(other, sched) {
		t.Fatal("seeds 3 and 4 gave the same order")
	}
	key := func(rs []request) []string {
		var ks []string
		for _, r := range rs {
			ks = append(ks, fmt.Sprint(r.Policy, r.Q))
		}
		sort.Strings(ks)
		return ks
	}
	block := coldBlockRounds * weights
	for i := 0; i < len(sched); i += block {
		j := min(i+block, len(sched))
		if !reflect.DeepEqual(key(sched[i:j]), key(other[i:j])) {
			t.Fatalf("block at %d holds different questions for seeds 3 and 4", i)
		}
	}
	for i := 0; i+weights <= len(sched); i += weights {
		per := map[int]int{}
		for _, r := range sched[i : i+weights] {
			per[r.Policy]++
		}
		for p, d := range docs {
			if per[p] != d.Weight {
				t.Fatalf("round at %d asks policy %d %d times, want %d", i, p, per[p], d.Weight)
			}
		}
	}
}

// TestSmoke runs every workload of BENCHMARK.json on a shrunken corpus,
// untraced and traced, and checks that each prints every metric
// BENCHMARK.json lists for its mode, with its unit, and passes its checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--scale", "0.1", "--workdir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result %+v", res)
				}
				want := s.EndToEnd
				if trace == "1" {
					want = s.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(stdout.String(), m.Name+" ") {
						t.Errorf("metric %s not printed for a reader", m.Name)
					}
				}
			})
		}
	}
}
