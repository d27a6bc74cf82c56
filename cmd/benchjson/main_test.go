package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) []Result {
	t.Helper()
	rs, err := parse(strings.NewReader(text), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func writeSnapshot(t *testing.T, rs []Result) string {
	t.Helper()
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func ptr(v int64) *int64 { return &v }

func TestParse(t *testing.T) {
	rs := mustParse(t, `goos: linux
pkg: jouleguard/internal/wire
BenchmarkFrameRoundTrip-2   	 8245960	       141.8 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernelStep/x264-16 	     100	     12345 ns/op
BenchmarkThroughput	1000	607 decisions/s
PASS
`)
	if len(rs) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(rs), rs)
	}
	rt := rs[0]
	if rt.Name != "BenchmarkFrameRoundTrip" || rt.Package != "jouleguard/internal/wire" || rt.Iterations != 8245960 {
		t.Errorf("first row %+v", rt)
	}
	if rt.NsPerOp != 141.8 || rt.BytesPerOp == nil || *rt.BytesPerOp != 0 || rt.AllocsPerOp == nil || *rt.AllocsPerOp != 0 {
		t.Errorf("first row units: ns %v B %v allocs %v", rt.NsPerOp, rt.BytesPerOp, rt.AllocsPerOp)
	}
	if rs[1].Name != "BenchmarkKernelStep/x264" || rs[1].NsPerOp != 12345 || rs[1].AllocsPerOp != nil {
		t.Errorf("sub-benchmark row %+v", rs[1])
	}
	if rs[2].Name != "BenchmarkThroughput" || rs[2].Metrics["decisions/s"] != 607 {
		t.Errorf("custom-unit row %+v", rs[2])
	}
}

func TestMergeSnapshot(t *testing.T) {
	path := writeSnapshot(t, []Result{
		{Name: "BenchmarkA", NsPerOp: 1},
		{Name: "BenchmarkB", NsPerOp: 2},
	})
	merged, err := mergeSnapshot(path, []Result{{Name: "BenchmarkB", NsPerOp: 20}, {Name: "BenchmarkC", NsPerOp: 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{{Name: "BenchmarkA", NsPerOp: 1}, {Name: "BenchmarkB", NsPerOp: 20}, {Name: "BenchmarkC", NsPerOp: 3}}
	if len(merged) != len(want) {
		t.Fatalf("merged %+v, want %+v", merged, want)
	}
	for i := range want {
		if merged[i].Name != want[i].Name || merged[i].NsPerOp != want[i].NsPerOp {
			t.Errorf("row %d: %+v, want %+v", i, merged[i], want[i])
		}
	}

	fresh := []Result{{Name: "BenchmarkA", NsPerOp: 1}}
	got, err := mergeSnapshot(filepath.Join(t.TempDir(), "missing.json"), fresh)
	if err != nil || len(got) != 1 || got[0].Name != "BenchmarkA" {
		t.Fatalf("missing snapshot: %+v, %v", got, err)
	}
}

func TestCompareSnapshots(t *testing.T) {
	path := writeSnapshot(t, []Result{
		{Name: "BenchmarkSessionLookup", NsPerOp: 100, AllocsPerOp: ptr(0)},
		{Name: "BenchmarkServeNextP50", NsPerOp: 100},
	})
	cases := []struct {
		name  string
		fresh string
		pin   string
		fail  bool
	}{
		{"suffixed row matches its pin", "BenchmarkSessionLookup-2 1000 110 ns/op 0 B/op 0 allocs/op", "SessionLookup", false},
		{"30% slowdown", "BenchmarkSessionLookup-2 1000 130 ns/op 0 B/op 0 allocs/op", "SessionLookup", true},
		{"first allocation", "BenchmarkSessionLookup 1000 100 ns/op 16 B/op 1 allocs/op", "SessionLookup", true},
		{"unpinned name ignored", "BenchmarkSessionLookup-2 1000 100 ns/op 0 B/op 0 allocs/op\nBenchmarkServeNextP50-2 1000 900 ns/op", "SessionLookup", false},
		{"nothing matched", "BenchmarkOther-2 1000 100 ns/op", "SessionLookup", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareSnapshots(path, mustParse(t, tc.fresh), tc.pin, 0.20)
			if (err != nil) != tc.fail {
				t.Fatalf("compare: err = %v, want failure %v", err, tc.fail)
			}
		})
	}
}
