package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jouleguard/internal/wire"
)

// TestMain lets the test binary stand in for the benchmark's own binary
// when a run times its cold set-ups in child processes.
func TestMain(m *testing.M) {
	if os.Getenv(setupChildEnv) != "" {
		os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(workloads); got != want {
		t.Errorf("BENCHMARK.json workloads %q, code %q", got, want)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		spec []metricSpec
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range c.file {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, m := range c.spec {
			want = append(want, m.name+" "+m.unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json metrics\n%v\ncode\n%v", got, want)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at a tiny size,
// untraced and traced, the failing workloads included. The result line
// must name every metric with its unit (subtest metrics), and the run
// must pass its checks (subtest checks).
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range allWorkloads() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errs bytes.Buffer
				code := cli([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.4",
					"--trace", trace, "--out", t.TempDir()}, &out, &errs)
				if code == 2 {
					t.Fatalf("exit %d\n%s", code, errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultOut
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				t.Run("metrics", func(t *testing.T) {
					specs := endToEnd
					if trace == "1" {
						specs = perLayer
					}
					if len(res.Metrics) != len(specs) {
						t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
					}
					for _, s := range specs {
						m, ok := res.Metrics[s.name]
						if !ok || m.Unit != s.unit {
							t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
						}
						if trace == "0" && m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
						}
					}
					if res.Attempted == 0 {
						t.Errorf("result %+v", res)
					}
				})
				t.Run("checks", func(t *testing.T) {
					if code != 0 || !res.Correct || res.Failed != 0 {
						t.Errorf("exit %d, result correct=%v failed=%d\n%s", code, res.Correct, res.Failed, errs.String())
					}
				})
			})
		}
	}
}

func TestGuaranteeCheck(t *testing.T) {
	p := sessionPlan{Tenant: "t", App: "radar", Platform: "Server", Factor: 1.5}
	for _, c := range []struct {
		uses []float64
		pass bool
	}{{[]float64{0.98}, true}, {[]float64{0.97, 1.05}, true}, {[]float64{0.99, 1.10, 1.0}, false}, {nil, false}} {
		r := newReport()
		r.attempted = 1
		var closed closedUse
		for _, u := range c.uses {
			closed.add(p, 1000*u, 1000*u, 1000)
		}
		closed.check(r)
		if got := r.result(true).Correct; got != c.pass {
			t.Errorf("uses %v: correct=%v, want %v", c.uses, got, c.pass)
		}
	}
	// A long session's per-iteration use is its spend over its grant
	// prorated to the iterations done.
	if u := grantUse(110, 1000, 100, 1000); u < 1.0999 || u > 1.1001 {
		t.Errorf("prorated use %v, want 1.1", u)
	}
}

// TestReplayCheck serves a session from an in-process daemon, then
// replays its log: exact inputs must reproduce every decision, and a
// perturbed input must be caught.
func TestReplayCheck(t *testing.T) {
	rig, err := startInproc(inprocPlans(5)[:1], inprocShortPlans(5))
	if err != nil {
		t.Fatal(err)
	}
	defer rig.stop()
	s := rig.sess[0]
	ps := &phaseStats{tr: newTracer()}
	for i := 0; i < 300; i++ {
		if _, err := rig.iterate(s, ps); err != nil {
			t.Fatal(err)
		}
	}
	exp, ok := exportOne(rig.srv, s.id, rig.ids)
	if !ok {
		t.Fatal("session missing from export")
	}
	var st replayStats
	if err := replaySession(exp, s.served, &st); err != nil {
		t.Fatalf("exact replay: %v", err)
	}
	if st.checked != len(s.served) {
		t.Errorf("checked %d of %d served decisions", st.checked, len(s.served))
	}
	// Stretch one iteration by a minute of wall time; every later
	// decision sees a different history.
	k := warmIters + 10
	bad := exp
	bad.NewIters = append([]wire.IterRec(nil), exp.NewIters...)
	for i := k; i < len(bad.NewIters); i++ {
		if i > k {
			bad.NewIters[i].NextNow += 60
		}
		bad.NewIters[i].DoneNow += 60
	}
	if err := replaySession(bad, s.served, &replayStats{}); err == nil {
		t.Error("replay of a perturbed input reproduced every decision")
	}
}

func TestSeedChangesInputs(t *testing.T) {
	churn := func(seed int64) []sessionPlan {
		p, err := churnPlans(seed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, gen := range map[string]func(int64) []sessionPlan{
		"inproc-governor": inprocPlans, "fleet-v2": fleetPlans, "v1-churn": churn,
	} {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: a different seed gave the same inputs", name)
		}
	}
}

func TestCompareRefusesOtherEnvironments(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, env envBlock) string {
		f := resultFile{Workload: "inproc-governor", Env: env,
			Result: resultOut{Metrics: map[string]metricOut{"iter_p50_us": {Value: 3, Unit: "us"}}}}
		b, _ := json.Marshal(f)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	env := currentEnv()
	other := env
	other.GOMAXPROCS++
	a, b, c := write("a.json", env), write("b.json", env), write("c.json", other)
	var out bytes.Buffer
	if code := cli([]string{"compare", a, b}, &out, &out); code != 0 {
		t.Errorf("same environment: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := cli([]string{"compare", a, c}, &out, &out); code != 2 || !strings.Contains(out.String(), "GOMAXPROCS") {
		t.Errorf("different GOMAXPROCS: exit %d\n%s", code, out.String())
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(float64(i) * 1000)
	}
	if p50 := h.quantile(0.5); p50 < 490e3 || p50 > 510e3 {
		t.Errorf("p50 %v, want about 500e3", p50)
	}
	if p99 := h.quantile(0.99); p99 < 970e3 || p99 > 1010e3 {
		t.Errorf("p99 %v, want about 990e3", p99)
	}
	if m := h.mean(); m != 500500 {
		t.Errorf("mean %v", m)
	}
}
