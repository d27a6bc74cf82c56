package main

// Observability acceptance checks for a cluster run (-obs-check): while
// the load runs, a poller continuously samples the joule-provenance
// surfaces and records the worst conservation drift it ever saw — so a
// mid-run coordinator kill is covered, not just the quiescent end state
// — and after the run the harness joins one distributed trace across
// the client's own span buffer, the member daemons' /traces windows and
// the coordinator's, asserting the parent links chain client -> daemon
// -> broker -> coordinator.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"jouleguard/internal/load"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// provTolJ is the conservation tolerance the provenance layers promise.
const provTolJ = 1e-6

type obsCheck struct {
	sc      *selfcluster
	tracer  *telemetry.SpanBuffer
	tenants int
	httpc   *http.Client
	stop    chan struct{}
	done    chan struct{}

	mu         sync.Mutex
	sessSample int     // successful /v1/provenance samples
	fleetSamp  int     // successful /v1/cluster/provenance samples
	maxDriftJ  float64 // worst |DriftJ| across every sampled layer
	worstLayer string
}

func startObsCheck(sc *selfcluster, tracer *telemetry.SpanBuffer, tenants int) *obsCheck {
	o := &obsCheck{
		sc: sc, tracer: tracer, tenants: tenants,
		httpc: &http.Client{Timeout: 2 * time.Second},
		stop:  make(chan struct{}), done: make(chan struct{}),
	}
	go o.poll()
	return o
}

// poll samples the provenance surfaces until stopped: each round asks
// every node for one rotating tenant key's custody chain (non-owners
// answer 404, dead nodes refuse the connection; both are skipped) and
// the serving coordinator for the fleet chain.
func (o *obsCheck) poll() {
	defer close(o.done)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	round := 0
	for {
		select {
		case <-o.stop:
			return
		case <-tick.C:
		}
		key := fmt.Sprintf("tenant-%02d", round%max(o.tenants, 1))
		round++
		for _, u := range o.sc.nodeURLs() {
			var p wire.SessionProvenance
			if !o.getJSON(u+wire.ProvenancePath+"?session="+key, &p) {
				continue
			}
			o.fold(p.Layers, 1, 0)
			break
		}
		var cp wire.ClusterProvenance
		if o.getJSON(o.sc.servingURL()+wire.ClusterBasePath+"/provenance", &cp) {
			o.fold(cp.Layers, 0, 1)
		}
	}
}

func (o *obsCheck) getJSON(url string, v any) bool {
	resp, err := o.httpc.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	return json.NewDecoder(resp.Body).Decode(v) == nil
}

func (o *obsCheck) fold(layers []wire.ProvenanceLayer, sess, fleet int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sessSample += sess
	o.fleetSamp += fleet
	for _, l := range layers {
		if d := math.Abs(l.DriftJ); d > o.maxDriftJ {
			o.maxDriftJ, o.worstLayer = d, l.Layer
		}
	}
}

// spanRow is the /traces JSONL export row.
type spanRow struct {
	Trace   string `json:"trace"`
	ID      string `json:"id"`
	Parent  string `json:"parent"`
	Name    string `json:"name"`
	Node    string `json:"node"`
	Session string `json:"session"`
	Iter    int    `json:"iter"`
}

// verify stops the poller and asserts the whole observability plane:
// provenance conserved to within provTolJ at every sampled instant and
// in the final fleet chain, and at least one trace joinable across the
// client, a member daemon and the coordinator.
func (o *obsCheck) verify(rep *load.Report) error {
	close(o.stop)
	<-o.done

	o.mu.Lock()
	sessN, fleetN, maxDrift, worst := o.sessSample, o.fleetSamp, o.maxDriftJ, o.worstLayer
	o.mu.Unlock()
	if sessN == 0 {
		return fmt.Errorf("obs-check: no session provenance chain was ever sampled")
	}
	if fleetN == 0 {
		return fmt.Errorf("obs-check: no cluster provenance chain was ever sampled")
	}
	if maxDrift > provTolJ {
		return fmt.Errorf("obs-check: provenance layer %q drifted %.3g J (tolerance %g)", worst, maxDrift, provTolJ)
	}
	var final wire.ClusterProvenance
	if !o.getJSON(o.sc.servingURL()+wire.ClusterBasePath+"/provenance", &final) {
		return fmt.Errorf("obs-check: final cluster provenance fetch failed")
	}
	for _, l := range final.Layers {
		if math.Abs(l.DriftJ) > provTolJ {
			return fmt.Errorf("obs-check: final cluster provenance layer %q drift %.3g J", l.Layer, l.DriftJ)
		}
	}

	trace, hops, err := o.joinTrace(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.sc.log, "obs-check passed: %d session + %d fleet provenance samples, worst drift %.2g J; "+
		"trace %s joined across client/member/coordinator (%d hops)\n",
		sessN, fleetN, maxDrift, telemetry.FormatID(trace), hops)
	return nil
}

// joinTrace finds one trace whose spans chain end to end: the client's
// root span in the local buffer, member spans parented to it, and a
// coordinator lease span parented to a member span. Trace refs ride
// heartbeats, so the coordinator hop can lag the run's end; candidates
// are retried until the deadline.
func (o *obsCheck) joinTrace(rep *load.Report) (trace uint64, hops int, err error) {
	candidates := make([]uint64, 0, len(rep.Tenants)+8)
	seen := map[uint64]bool{}
	for _, t := range rep.Tenants {
		if t.TraceID != 0 && !seen[t.TraceID] {
			candidates = append(candidates, t.TraceID)
			seen[t.TraceID] = true
		}
	}
	// Every client root span is a candidate too: a tenant's *last* minted
	// trace may have raced the run's end onto a node that died.
	for _, s := range o.tracer.Snapshot(0) {
		if !seen[s.Trace] {
			candidates = append(candidates, s.Trace)
			seen[s.Trace] = true
		}
	}
	if len(candidates) == 0 {
		return 0, 0, fmt.Errorf("obs-check: no tenant minted a trace (tracing disabled?)")
	}
	deadline := time.Now().Add(5 * time.Second)
	var lastErr error
	for {
		for _, tr := range candidates {
			if hops, jerr := o.tryJoin(tr); jerr == nil {
				return tr, hops, nil
			} else {
				lastErr = jerr
			}
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("obs-check: no trace joined across client, member and coordinator: %w", lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// tryJoin fetches one trace id from every surface and checks the chain.
func (o *obsCheck) tryJoin(trace uint64) (hops int, err error) {
	clientIDs := map[uint64]bool{}
	for _, s := range o.tracer.Snapshot(trace) {
		if s.Name == telemetry.SpanClientSend {
			clientIDs[s.ID] = true
		}
	}
	if len(clientIDs) == 0 {
		return 0, fmt.Errorf("trace %s: no client root span recorded", telemetry.FormatID(trace))
	}
	hex := telemetry.FormatID(trace)
	var member []spanRow
	for _, u := range o.sc.nodeURLs() {
		member = append(member, o.fetchSpans(u, hex)...)
	}
	memberIDs := map[uint64]bool{}
	childOfClient := false
	for _, r := range member {
		id, _ := telemetry.ParseID(r.ID)
		memberIDs[id] = true
		if p, ok := telemetry.ParseID(r.Parent); ok && clientIDs[p] {
			childOfClient = true
		}
	}
	if !childOfClient {
		return 0, fmt.Errorf("trace %s: no member span parented to the client root (%d member spans)", hex, len(member))
	}
	coord := o.fetchSpans(o.sc.servingURL(), hex)
	joined := false
	for _, r := range coord {
		if r.Name != telemetry.SpanCoordLease {
			continue
		}
		if p, ok := telemetry.ParseID(r.Parent); ok && memberIDs[p] {
			joined = true
			break
		}
	}
	if !joined {
		return 0, fmt.Errorf("trace %s: no coordinator lease span parented to a member span (%d coordinator spans)", hex, len(coord))
	}
	return len(clientIDs) + len(member) + len(coord), nil
}

// fetchSpans pulls one trace's JSONL window from a node's /traces
// endpoint (dead nodes and decode noise yield an empty slice).
func (o *obsCheck) fetchSpans(base, traceHex string) []spanRow {
	resp, err := o.httpc.Get(base + "/traces?trace=" + traceHex)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var rows []spanRow
	dec := json.NewDecoder(resp.Body)
	for {
		var r spanRow
		if err := dec.Decode(&r); err != nil {
			break
		}
		rows = append(rows, r)
	}
	return rows
}
