// Command benchjson converts `go test -bench` text output on stdin into a
// JSON timing snapshot on stdout, so `make bench` can leave a
// machine-readable artefact (BENCH_experiments.json) that CI or a later
// session can diff against.
//
// With -merge FILE, results from an existing snapshot are carried over:
// entries parsed from stdin replace same-name entries in FILE, everything
// else is kept, so a run of a subset of the benchmarks cannot drop the
// rows it did not re-measure.
//
// With -compare FILE, the fresh results are checked against a previous
// snapshot instead of merged: a pinned benchmark that got more than
// -threshold slower (ns/op up, or a rate unit like decisions/s down), or
// that allocates where it previously did not, fails the run with a
// non-zero exit. -pin restricts the comparison to names matching a
// regular expression; the default pins everything present in both
// snapshots. `make bench-check` wires this up as the perf regression
// gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line, e.g.
//
//	BenchmarkRate-4    93416    12.3 ns/op    0 B/op    0 allocs/op
//
// BytesPerOp/AllocsPerOp are pointers so that a measured zero — the
// zero-allocation guarantee this artefact exists to pin — is recorded
// explicitly, while benchmarks run without -benchmem stay absent.
type Result struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"` // custom units, e.g. "decisions/s"
}

func main() {
	merge := flag.String("merge", "", "existing snapshot whose entries are kept unless replaced by a same-name result from stdin")
	compare := flag.String("compare", "", "previous snapshot to diff the fresh results against; regressions exit non-zero")
	pin := flag.String("pin", "", "with -compare: only benchmarks matching this regexp are gated (default: all common names)")
	threshold := flag.Float64("threshold", 0.20, "with -compare: fractional slowdown tolerated before failing")
	flag.Parse()

	results, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		fatal(err)
	}
	if *compare != "" {
		if err := compareSnapshots(*compare, results, *pin, *threshold); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "benchjson: no pinned regressions")
		return
	}
	if *merge != "" {
		merged, err := mergeSnapshot(*merge, results)
		if err != nil {
			fatal(err)
		}
		results = merged
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// procsSuffix is the "-N" GOMAXPROCS suffix `go test` appends to every
// benchmark name when N > 1.
var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse reads `go test -bench` text, mirroring every line to echo so the
// human-readable stream is not swallowed when benchjson sits at the end
// of a pipeline. Names are recorded without their GOMAXPROCS suffix, so
// snapshots taken on machines with different CPU counts compare by name.
func parse(in io.Reader, echo io.Writer) ([]Result, error) {
	var results []Result
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: procsSuffix.ReplaceAllString(fields[0], ""), Package: pkg, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				b := int64(v)
				r.BytesPerOp = &b
			case "allocs/op":
				a := int64(v)
				r.AllocsPerOp = &a
			default:
				// Custom testing.B.ReportMetric-style units, such as
				// "decisions/s".
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// mergeSnapshot keeps every entry of the snapshot at path whose name was
// not re-measured on stdin, preserving file order, with fresh results
// appended. A missing file is not an error: the first run of a clean
// checkout has nothing to merge with.
func mergeSnapshot(path string, fresh []Result) ([]Result, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return fresh, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var old []Result
	if err := json.Unmarshal(data, &old); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	replaced := make(map[string]bool, len(fresh))
	for _, r := range fresh {
		replaced[r.Name] = true
	}
	merged := make([]Result, 0, len(old)+len(fresh))
	for _, r := range old {
		if !replaced[r.Name] {
			merged = append(merged, r)
		}
	}
	return append(merged, fresh...), nil
}

// compareSnapshots gates the fresh results against the snapshot at path.
// A pinned benchmark regresses when:
//   - ns/op grew by more than threshold,
//   - a rate metric (any "<x>/s" unit) shrank by more than threshold, or
//   - allocs/op grew at all — including 0 -> N, which silently voids a
//     zero-allocation guarantee no timing threshold would catch.
//
// Benchmarks present on only one side are reported but never fail the
// gate: a snapshot may hold rows the fresh run did not re-measure.
func compareSnapshots(path string, fresh []Result, pin string, threshold float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	var old []Result
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	var pinRe *regexp.Regexp
	if pin != "" {
		if pinRe, err = regexp.Compile(pin); err != nil {
			return fmt.Errorf("bad -pin: %w", err)
		}
	}
	byName := make(map[string]Result, len(old))
	for _, r := range old {
		byName[r.Name] = r
	}
	var regressions []string
	compared := 0
	for _, cur := range fresh {
		if pinRe != nil && !pinRe.MatchString(cur.Name) {
			continue
		}
		prev, ok := byName[cur.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %s: new benchmark, nothing to compare\n", cur.Name)
			continue
		}
		compared++
		if prev.NsPerOp > 0 && cur.NsPerOp > prev.NsPerOp*(1+threshold) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op, was %.0f (+%.0f%%)",
				cur.Name, cur.NsPerOp, prev.NsPerOp, 100*(cur.NsPerOp/prev.NsPerOp-1)))
		}
		for unit, was := range prev.Metrics {
			if !strings.HasSuffix(unit, "/s") || was <= 0 {
				continue
			}
			if now, ok := cur.Metrics[unit]; ok && now < was*(1-threshold) {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.0f %s, was %.0f (-%.0f%%)",
					cur.Name, now, unit, was, 100*(1-now/was)))
			}
		}
		if prev.AllocsPerOp != nil && cur.AllocsPerOp != nil && *cur.AllocsPerOp > *prev.AllocsPerOp {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs/op, was %d", cur.Name, *cur.AllocsPerOp, *prev.AllocsPerOp))
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
		}
		return fmt.Errorf("%d pinned benchmark(s) regressed beyond %.0f%%", len(regressions), threshold*100)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmarks matched the pin %q in both snapshots", pin)
	}
	return nil
}
