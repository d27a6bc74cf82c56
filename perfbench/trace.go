package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own files, around
// the calls it makes into each layer; there are no spans inside the
// program. Every timed call also lands in a per-name histogram, so the
// per-layer figures cover every call while the span log stays bounded.

// span is one timed call. Spans of one governed iteration share Trace
// (the root span's id); Parent names the span that caused this one.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanCap bounds the spans kept per tracer; later calls still feed the
// histograms.
const spanCap = 50000

var (
	spanIDs   atomic.Uint64
	traceBase = time.Now()
)

// tracer is one goroutine's span recorder. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	hists map[string]*hist
	spans []span
}

func newTracer() *tracer { return &tracer{hists: map[string]*hist{}} }

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return spanIDs.Add(1)
}

// record closes a span that started at start and ends now, returning the
// end time so callers can chain timestamps.
func (t *tracer) record(name string, trace, id, parent uint64, start time.Time) time.Time {
	end := time.Now()
	if t == nil {
		return end
	}
	t.observe(name, end.Sub(start))
	if len(t.spans) < spanCap {
		if id == 0 {
			id = spanIDs.Add(1)
		}
		t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
			Start: start.Sub(traceBase).Nanoseconds(), End: end.Sub(traceBase).Nanoseconds()})
	}
	return end
}

// observe adds a sample to a named histogram without a span.
func (t *tracer) observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	h := t.hists[name]
	if h == nil {
		h = &hist{}
		t.hists[name] = h
	}
	h.addDur(d)
}

func (t *tracer) hist(name string) *hist {
	if h := t.hists[name]; h != nil {
		return h
	}
	return &hist{}
}

// merge folds another tracer's histograms and spans into t.
func (t *tracer) merge(o *tracer) {
	if o == nil {
		return
	}
	for name, h := range o.hists {
		if t.hists[name] == nil {
			t.hists[name] = &hist{}
		}
		t.hists[name].merge(h)
	}
	t.spans = append(t.spans, o.spans...)
}

// us returns a named histogram's p50 in microseconds.
func (t *tracer) us(name string) float64 { return t.hist(name).quantile(0.5) / 1e3 }

// meanUS returns a named histogram's mean in microseconds.
func (t *tracer) meanUS(name string) float64 { return t.hist(name).mean() / 1e3 }

// writeSpans writes the span log as JSON lines when the run ends.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// routeTimer wraps a program's http.Handler and times each request by
// route. The key is "METHOD last-path-segment" ("POST next"), with
// session ids folded to "session" and the benchmark's session keys to
// "key", which is all the wire surfaces here need to tell their calls
// apart. Safe for concurrent use.
type routeTimer struct {
	next http.Handler

	mu    sync.Mutex
	hists map[string]*hist
	bytes map[string]*hist
}

func newRouteTimer(h http.Handler) *routeTimer {
	return &routeTimer{next: h, hists: map[string]*hist{}, bytes: map[string]*hist{}}
}

func routeKey(r *http.Request) string {
	seg := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
	switch {
	case strings.HasPrefix(seg, "s-"):
		seg = "session"
	case strings.HasPrefix(seg, sessionKeyPrefix):
		seg = "key"
	}
	return r.Method + " " + seg
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.next.ServeHTTP(w, r)
	d := time.Since(start)
	key := routeKey(r)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, m := range []map[string]*hist{rt.hists, rt.bytes} {
		if m[key] == nil {
			m[key] = &hist{}
		}
	}
	rt.hists[key].addDur(d)
	rt.bytes[key].add(float64(r.ContentLength))
}

// route returns a copy of one route's timing histogram.
func (rt *routeTimer) route(key string) hist {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h := rt.hists[key]; h != nil {
		return *h
	}
	return hist{}
}

func (rt *routeTimer) routeBytes(key string) hist {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if h := rt.bytes[key]; h != nil {
		return *h
	}
	return hist{}
}

// scrape reads a daemon's Prometheus exposition from its handler and
// sums every series per metric name (labels folded together).
func scrape(h http.Handler, path string) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: HTTP %d", path, rec.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}

// scrapeLabeled returns the value of the series whose line starts with
// the given name-and-labels prefix (e.g. `x_total{verdict="rejected"}`).
func scrapeLabeled(h http.Handler, path, series string) float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	var v float64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, series+" ") {
			f, _ := strconv.ParseFloat(line[len(series)+1:], 64)
			v += f
		}
	}
	return v
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
