// Command perfbench is the repository's benchmark. It runs one workload
// against the program's public entry points, checks the energy
// guarantee and the ledgers on every run, and prints one JSON result
// line: end-to-end metrics untraced (--trace 0), per-layer metrics from
// a traced run (--trace 1). See README.md for the workloads, the
// metrics and how each layer metric maps to an end-to-end one.
//
//	bash perfbench/run.sh --workload inproc-governor --seed 1 --seconds 10 --trace 0
//	.bench_build/perfbench compare a.json b.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit; the lists below are
// the ones BENCHMARK.json declares (a test keeps the two in step).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"iter_p50_us", "us"},
	{"iter_p95_us", "us"},
	{"decisions_per_s", "1/s"},
	{"open_p50_ms", "ms"},
	{"accuracy_mean", "ratio"},
	{"grant_use_max", "ratio"},
	{"heap_mb", "MiB"},
	{"cpu_us_per_iter", "us"},
}

var perLayer = []metricSpec{
	{"governor.next_us", "us"},
	{"governor.done_us", "us"},
	{"core.decide_us", "us"},
	{"core.observe_us", "us"},
	{"guard.self_us", "us"},
	{"core.explore_ratio", "ratio"},
	{"guard.reject_ratio", "ratio"},
	{"server.next_us", "us"},
	{"server.done_us", "us"},
	{"server.self_us", "us"},
	{"server.register_us", "us"},
	{"server.close_us", "us"},
	{"server.v1_handler_us", "us"},
	{"server.decision_us", "us"},
	{"server.heap_bytes_per_iter", "bytes"},
	{"server.snapshot_bytes", "bytes"},
	{"server.snapshot_ms", "ms"},
	{"broker.reject_ratio", "ratio"},
	{"server.retained_sessions", "count"},
	{"wire.frame_codec_ns", "ns"},
	{"wire.json_codec_us", "us"},
	{"client.open_ms", "ms"},
	{"client.donenext_us", "us"},
	{"client.next_us", "us"},
	{"client.done_us", "us"},
	{"client.close_us", "us"},
	{"client.v1_fallback_ratio", "ratio"},
	{"transport.v2_us", "us"},
	{"transport.v1_us", "us"},
	{"cluster.heartbeats_per_s", "1/s"},
	{"cluster.extends", "count"},
	{"cluster.heartbeat_bytes_p50", "bytes"},
	{"cluster.heartbeat_us_p50", "us"},
	{"cluster.place_us", "us"},
	{"cluster.wal_bytes_per_kiter", "bytes"},
	{"qos.denials", "count"},
	{"qos.escalations", "count"},
	{"measure.gate_reject_ratio", "ratio"},
	{"measure.samples_per_iter", "count"},
	{"measure.calibrate_ms", "ms"},
	{"telemetry.spans_per_kiter", "count"},
	{"apps.step_us", "us"},
	{"sim.self_us", "us"},
	{"par.busy_ratio", "ratio"},
	{"apps.testbed_build_s", "s"},
	{"load.gen_share", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.reconcile_pct", "%"},
}

// runCfg is what every workload receives.
type runCfg struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // per-run directory for the WAL and span dumps

	// setupOnly stops the run once its set-up is done: the process
	// prints setupReadyLine and exits (see coldSetups).
	setupOnly bool
	stdout    io.Writer
}

// setupDone is called by every workload once its set-up is done, which
// is where its measured phase begins. It reports whether the run stops
// there; a set-up-only run first tells its parent.
func (c *runCfg) setupDone() bool {
	if c.setupOnly {
		fmt.Fprintln(c.stdout, setupReadyLine)
	}
	return c.setupOnly
}

const setupReadyLine = "perfbench: set-up done"

// setupChildEnv marks a set-up-only child process (see coldSetups).
const setupChildEnv = "PERFBENCH_SETUP_CHILD"

// coldSetups times cold set-ups of a run, each in a fresh process of
// this program, from starting the process until it reports its set-up
// done, and returns their median: at least setupReps of them, and more
// until setupMinTime has passed. Each child does everything
// the run's own process does before its measured phase: process start,
// testbeds and oracles, daemons, registrations, calibration, warm-up.
func coldSetups(args []string, dir string, stderr io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	start := time.Now()
	for i := 0; i < setupReps || time.Since(start) < setupMinTime; i++ {
		cmd := exec.Command(exe, append(args, "--setup-only", "--out", filepath.Join(dir, fmt.Sprintf("setup-%d", i)))...)
		cmd.Env = append(os.Environ(), setupChildEnv+"=1")
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		_, _ = io.Copy(io.Discard, out)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up process %d: %w", i, err)
		}
		if rerr != nil || strings.TrimSpace(line) != setupReadyLine {
			return 0, fmt.Errorf("set-up process %d did not report its set-up done (%q)", i, line)
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

func (c *runCfg) phase() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		// A traced run measures untraced then traced, half each.
		d /= 2
	}
	return d
}

type workload struct {
	name, why string
	run       func(*runCfg) (*report, error)
}

// workloads are the benchmark's workloads, the ones BENCHMARK.json
// lists.
var workloads = []workload{
	{"inproc-governor", "in-process server, no sockets: all time goes to the governor and the server's session path", runInproc},
	{"serve-v2", "one daemon on loopback, long sessions on batched v2 frames: codec, socket, client and server", runServeV2},
	{"paper-sweep", "offline experiments.Sweep over every app and platform at the paper factors: apps, platform, sim and par", runSweep},
}

// failingWorkloads run and check like the others, but fail their checks
// on every run because of program defects (README.md, "Workloads the
// program fails"). They stay out of BENCHMARK.json until those are
// fixed: a benchmark run must pass its checks.
var failingWorkloads = []workload{
	{"fleet-v2", "coordinator plus 3 members on loopback, long sessions on batched v2 frames: codec, socket, client and cluster", runFleet},
	{"v1-churn", "one daemon over v1 JSON with the sim meter and QoS on, short sessions opened and closed back to back", runChurn},
}

func allWorkloads() []workload { return append(slices.Clone(workloads), failingWorkloads...) }

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report is one run's outcome: operations attempted and failed, the
// metric values, and every failed check.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	failures          []string
	spans             []span
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// check records a failed correctness check; any one fails the run. A
// check made after each phase that fails the same way is recorded once.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if !slices.Contains(r.failures, msg) {
		r.failures = append(r.failures, msg)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result renders the report for the metric list the run reports:
// end-to-end untraced, per-layer traced. A per-layer metric the workload
// does not exercise reads 0; a missing or non-finite end-to-end metric
// fails the run.
func (r *report) result(trace bool) resultOut {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	out := resultOut{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is not finite", s.name)
			v, ok = 0, false
		}
		r.check(ok || trace, "metric %s was not measured", s.name)
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	r.check(r.attempted > 0, "no operation was attempted")
	r.check(r.failed == 0, "%d of %d operations failed", r.failed, r.attempted)
	out.Correct = len(r.failures) == 0
	return out
}

// resultFile is what each run leaves in its output directory, and what
// compare reads.
type resultFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    bool      `json:"trace"`
	Env      envBlock  `json:"env"`
	Result   resultOut `json:"result"`
	Failures []string  `json:"failures,omitempty"`
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs the command and returns its exit code: 0 on success, 1 when a
// check failed (the result line still prints, with correct false), 2
// when the run could not be made at all.
func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames(allWorkloads()))
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench-runs", "directory for result files, span dumps and the fleet WAL")
	setupOnly := fs.Bool("setup-only", false, "stop once set-up is done (used to time cold set-ups)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", workloadNames(allWorkloads()))
		return 2
	}
	var err error
	runDir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err = os.RemoveAll(runDir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := &runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: runDir, setupOnly: *setupOnly, stdout: stdout}
	var setup float64
	if !cfg.setupOnly {
		runArgs := []string{"--workload", w.name, "--seed", fmt.Sprint(*seed), "--trace", fmt.Sprint(*trace)}
		if setup, err = coldSetups(runArgs, runDir, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: timing set-up: %v\n", w.name, err)
			return 2
		}
	}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	if cfg.setupOnly {
		return 0
	}
	rep.set("setup_s", setup)
	env := currentEnv()
	if cfg.trace {
		if err := writeSpans(runDir, "spans.jsonl", rep.spans); err != nil {
			rep.check(false, "writing spans: %v", err)
		}
	}
	res := rep.result(cfg.trace)
	file := resultFile{Workload: w.name, Seed: *seed, Trace: cfg.trace, Env: env, Result: res, Failures: rep.failures}
	if b, err := json.MarshalIndent(file, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(runDir, "result.json"), b, 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing result file:", err)
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "CHECK FAILED:", f)
	}
	envLine, _ := json.Marshal(map[string]envBlock{"env": env})
	fmt.Fprintln(stdout, string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames(ws []workload) string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// compareCmd prints the relative change of every metric between two
// result files of the same workload and trace mode. It refuses to
// compare results whose environments differ.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var files [2]resultFile
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	base, cur := files[0], files[1]
	if base.Workload != cur.Workload || base.Trace != cur.Trace {
		fmt.Fprintf(stderr, "perfbench: refusing to compare %s (trace %v) with %s (trace %v)\n",
			base.Workload, base.Trace, cur.Workload, cur.Trace)
		return 2
	}
	if diff := base.Env.diff(cur.Env); diff != "" {
		fmt.Fprintf(stderr, "perfbench: refusing to compare results from different environments: %s\n", diff)
		return 2
	}
	names := make([]string, 0, len(base.Result.Metrics))
	for n := range base.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-30s %14s %14s %9s\n", "metric", "base", "new", "change")
	for _, n := range names {
		b, c := base.Result.Metrics[n], cur.Result.Metrics[n]
		change := "n/a"
		if b.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(c.Value-b.Value)/b.Value)
		}
		fmt.Fprintf(stdout, "%-30s %14.6g %14.6g %9s %s\n", n, b.Value, c.Value, change, b.Unit)
	}
	return 0
}
