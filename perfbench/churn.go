package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"jouleguard/internal/client"
	"jouleguard/internal/guard"
	"jouleguard/internal/measure"
	"jouleguard/internal/platform"
	"jouleguard/internal/qos"
	"jouleguard/internal/server"
	"jouleguard/internal/telemetry"
	"jouleguard/internal/wire"
)

// v1-churn: one daemon over v1 JSON/HTTP, billing from a calibrated
// simulated meter (the daemon's -meter sim mode) with the QoS ladder on.
// Honest tenants cycle through the guaranteed, standard and best-effort
// tiers. Each of two drivers opens a short session on the next
// app x platform pair, runs it to completion, closes it and opens
// another.

// churnApps are the applications the churn cycles over, on every
// platform. x264 and bodytrack are left to paper-sweep: their kernels
// cost over a millisecond a step, and tabulating them would dominate
// set-up.
var churnApps = []string{"swaptions", "swish++", "radar", "canneal", "ferret", "streamcluster"}

var churnTiers = []string{"guaranteed", "standard", "best-effort"}

const (
	// churnIters is the mean session length; lengths are drawn from
	// churnIters-10 to churnIters+10.
	churnIters = 50
	// churnHeapAfter is where heap_mb is read: about a quarter into a
	// 10 s phase on a 2-vCPU Xeon.
	churnHeapAfter = 20_000
	// churnDrivers is how many load goroutines open sessions at once.
	churnDrivers = 2
)

// churnPlans generates the cycle of short sessions over every
// app x platform pair on which the oracle finds an energy reduction
// feasible (Oracle.MaxFeasibleFactor above 1), as the paper omits
// infeasible pairs. The seed shuffles the pair order and draws each
// session's factor (1.2 to 1.8, capped at the pair's maximum feasible
// factor), length, governor seed and input offset.
func churnPlans(seed int64) ([]sessionPlan, error) {
	type pair struct {
		app, plat string
		maxF      float64
	}
	var pairs []pair
	for _, plat := range platform.Names() {
		for _, app := range churnApps {
			_, orc, err := pairTestbed(app, plat)
			if err != nil {
				return nil, err
			}
			if maxF := orc.MaxFeasibleFactor(); maxF > 1 {
				pairs = append(pairs, pair{app, plat, maxF})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	plans := make([]sessionPlan, 3*len(pairs))
	for k := range plans {
		p := pairs[k%len(pairs)]
		tier := churnTiers[k%len(churnTiers)]
		plans[k] = sessionPlan{
			Tenant: fmt.Sprintf("%s-%d", tier, k/len(churnTiers)%2), Tier: tier,
			App: p.app, Platform: p.plat,
			Factor:     min(1.2+0.6*rng.Float64(), p.maxF),
			Iterations: churnIters - 10 + rng.Intn(21),
			Seed:       1 + rng.Int63n(1<<30), Offset: rng.Intn(inputWindow),
		}
	}
	return plans, nil
}

type churnRig struct {
	plans     []sessionPlan
	cursor    atomic.Int64
	srv       *server.Server
	h         http.Handler
	timer     *routeTimer
	l         *listener
	httpc     *http.Client
	calibrate time.Duration

	mu     sync.Mutex // guards closed and served across the drivers
	closed closedUse
	served map[string][]served // by session id, traced phase only
}

func startChurn(plans []sessionPlan, seed int64, traced bool) (*churnRig, error) {
	var maxW, maxGrant float64
	for _, p := range plans {
		m, err := model(p.App, p.Platform)
		if err != nil {
			return nil, err
		}
		tb, _, err := pairTestbed(p.App, p.Platform)
		if err != nil {
			return nil, err
		}
		maxW = max(maxW, tb.DefaultPower)
		maxGrant = max(maxGrant, float64(p.Iterations)*m.defaultJ/p.Factor)
	}
	// The meter runs on a virtual clock the settled iterations advance,
	// so it sees physically plausible watts however fast the loop runs.
	tel := telemetry.New(4096)
	vc := measure.NewVirtualClock()
	meter := measure.NewSimMeter(measure.SimConfig{IdleW: 2, Seed: seed, Now: vc.Now})
	t0 := time.Now()
	cal, err := measure.Calibrate(meter, measure.CalibrationConfig{Sleep: vc.Sleep, Now: vc.Now})
	if err != nil {
		return nil, err
	}
	rig := &churnRig{plans: plans, calibrate: time.Since(t0), served: map[string][]served{},
		httpc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
	svc := measure.NewService(measure.ServiceConfig{
		Meter: meter, Gate: guard.Config{MaxPower: 16 * maxW}, Baseline: cal, Now: vc.Now, Tel: tel,
	})
	// The pool is far larger than the sessions ever hold at once, so
	// admission and overload shedding never bind on honest tenants.
	rig.srv, err = server.New(server.Config{
		GlobalBudgetJ: maxGrant * 1e5, Telemetry: tel,
		QoS: qos.Config{Enabled: true}, SweepInterval: 100 * time.Millisecond,
		Meter:         svc,
		MeterStimulus: func(j, d float64) { meter.Deposit(j); vc.Advance(d) },
	})

	if err != nil {
		return nil, err
	}
	rig.h, rig.timer = maybeTimed(rig.srv.Handler(), traced)
	if rig.l, err = listen(rig.h); err != nil {
		rig.stop()
		return nil, err
	}
	// First registration per pair, then two full sessions.
	seen := map[[2]string]bool{}
	for _, p := range plans {
		if seen[[2]string{p.App, p.Platform}] {
			continue
		}
		seen[[2]string{p.App, p.Platform}] = true
		cs, err := rig.open(p, newTenant(models[[2]string{p.App, p.Platform}], 0))
		if err == nil {
			err = cs.Close(context.Background())
		}
		if err != nil {
			rig.stop()
			return nil, fmt.Errorf("first registration %s/%s: %w", p.App, p.Platform, err)
		}
	}
	var warm phaseStats
	for i := 0; i < 2; i++ {
		rig.session(&warm)
	}
	if warm.failed > 0 {
		rig.stop()
		return nil, fmt.Errorf("warm-up: %v", warm.errs[0])
	}
	return rig, nil
}

func (rig *churnRig) open(p sessionPlan, t *tenant) (*client.Session, error) {
	return client.Open(context.Background(), client.Options{
		BaseURL: rig.l.url, Tenant: p.Tenant, Tier: p.Tier, App: p.App, Platform: p.Platform,
		Iterations: p.Iterations, Factor: p.Factor, Seed: p.Seed, DisableV2: true, HTTPClient: rig.httpc,
	}, t.readEnergy, t.now)
}

// session opens the next planned session, runs it to completion over v1
// Next and Done, and closes it.
func (rig *churnRig) session(ps *phaseStats) {
	p := rig.plans[int(rig.cursor.Add(1)-1)%len(rig.plans)]
	t := newTenant(models[[2]string{p.App, p.Platform}], p.Offset)
	tr := ps.tr
	root := tr.newID()
	start := time.Now()
	t0 := start
	cs, err := rig.open(p, t)
	t1 := tr.record("client.open", root, 0, root, t0)
	ps.open.addDur(t1.Sub(t0))
	if err != nil {
		ps.fail(fmt.Errorf("open %s/%s: %w", p.App, p.Platform, err))
		return
	}
	ps.callTime += t1.Sub(t0)
	var mine []served
	for i := 0; i < p.Iterations; i++ {
		t0 := time.Now()
		app, sys, err := cs.Next(context.Background())
		t1 := tr.record("client.next", root, 0, root, t0)
		if err != nil {
			ps.fail(fmt.Errorf("%s Next: %w", cs.ID(), err))
			return
		}
		next := wire.NextRequest{NowS: t.clock}
		acc := t.step(app, sys)
		t2 := time.Now()
		err = cs.Done(context.Background(), acc)
		t3 := tr.record("client.done", root, 0, root, t2)
		if err != nil {
			ps.fail(fmt.Errorf("%s Done: %w", cs.ID(), err))
			return
		}
		call := t1.Sub(t0) + t3.Sub(t2)
		ps.sample(t3, call, 2)
		ps.accSum += acc
		if tr != nil {
			mine = append(mine, served{iter: i, app: app, sys: sys})
			ps.keepWire(wireSample{next: next, nextResp: wire.NextResponse{Iter: i, AppConfig: app, SysConfig: sys},
				done: wire.DoneRequest{NowS: t.clock, EnergyJ: t.energy, Accuracy: acc}, doneResp: cs.LastStatus()})
		}
	}
	t0 = time.Now()
	err = cs.Close(context.Background())
	t1 = tr.record("client.close", root, 0, root, t0)
	tr.record("session", root, root, 0, start)
	ps.callTime += t1.Sub(t0)
	if err != nil {
		ps.fail(fmt.Errorf("close %s: %w", cs.ID(), err))
		return
	}
	// Close settles the ledger: the session ran to completion, so this
	// is its whole spend over its whole grant.
	rig.mu.Lock()
	defer rig.mu.Unlock()
	rig.closed.add(p, cs.LastStatus().SpentJ, t.energy, cs.GrantJ())
	if tr != nil {
		rig.served[cs.ID()] = mine
	}
}

// loop runs churnDrivers drivers until the deadline, each opening
// sessions back to back, and merges what they measured into ps.
func (rig *churnRig) loop(deadline time.Time, ps *phaseStats) {
	parts := make([]*phaseStats, churnDrivers)
	var wg sync.WaitGroup
	for d := range parts {
		part := &phaseStats{start: ps.start}
		if d == 0 {
			part.heapAfter = ps.heapAfter / churnDrivers
		}
		if ps.tr != nil {
			part.tr = newTracer()
		}
		parts[d] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && part.failed == 0 {
				rig.session(part)
			}
		}()
	}
	wg.Wait()
	for _, part := range parts {
		ps.merge(part)
	}
	// Driver 0 read the heap after its share of the iterations.
	ps.heapIters *= churnDrivers
}

func (rig *churnRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = rig.srv.Shutdown(ctx)
	if rig.l != nil {
		rig.l.close()
	}
	rig.httpc.CloseIdleConnections()
}

func runChurn(c *runCfg) (*report, error) {
	r := newReport()
	plans, err := churnPlans(c.seed)
	if err != nil {
		return nil, err
	}
	rig, err := startChurn(plans, c.seed, c.trace)
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	if c.setupDone() {
		return r, nil
	}

	heap0 := liveHeap()
	plain := drive(c.phase(), churnHeapAfter, false, rig.loop)
	r.setEndToEnd(plain)
	r.set("open_p50_ms", plain.open.quantile(0.5)/1e6)
	r.attempted += int(plain.open.n)
	r.set("grant_use_max", rig.closed.worst)
	rig.closed.check(r)
	checkBroker(r, "daemon", rig.srv)
	if !c.trace {
		return r, nil
	}

	traced := drive(c.phase(), 0, true, rig.loop)
	r.count(traced)
	r.attempted += int(traced.open.n)
	rig.closed.check(r)
	checkBroker(r, "daemon", rig.srv)
	tr := traced.tr
	r.setLayerCommon(plain, traced, heap0)
	for _, name := range []string{"client.next", "client.done", "client.close"} {
		r.set(name+"_us", tr.us(name))
	}
	r.set("client.open_ms", tr.hist("client.open").quantile(0.5)/1e6)
	reg, cl := rig.timer.route("POST sessions"), rig.timer.route("DELETE session")
	next, done := rig.timer.route("POST next"), rig.timer.route("POST done")
	r.set("server.register_us", reg.quantile(0.5)/1e3)
	r.set("server.close_us", cl.quantile(0.5)/1e3)
	r.set("server.v1_handler_us", (next.quantile(0.5)+done.quantile(0.5))/1e3)
	r.set("transport.v1_us", r.metrics["client.next_us"]+r.metrics["client.done_us"]-r.metrics["server.v1_handler_us"])
	r.set("measure.calibrate_ms", float64(rig.calibrate)/1e6)

	iters := plain.iters + traced.iters
	daemonLayers(r, []daemon{{rig.srv, rig.srv.Handler()}}, iters)
	m, err := scrape(rig.srv.Handler(), "/metrics")
	if err != nil {
		return nil, err
	}
	rejected := scrapeLabeled(rig.srv.Handler(), "/metrics", `jouleguard_meter_gate_total{verdict="rejected"}`)
	if gate := m["jouleguard_meter_gate_total"]; gate > 0 {
		r.set("measure.gate_reject_ratio", rejected/gate)
	}
	r.set("measure.samples_per_iter", m["jouleguard_meter_samples_total"]/float64(max(iters, 1)))

	exports := map[string]server.SessionExport{}
	for _, e := range rig.srv.Export(nil) {
		exports[e.ID] = e
	}
	var st replayStats
	for id, want := range rig.served {
		exp, ok := exports[id]
		if !ok {
			r.check(false, "session %s no longer retained by the daemon; its decisions cannot be replayed", id)
			continue
		}
		if err := replaySession(exp, want, &st); err != nil {
			r.check(false, "governor replay: %v", err)
		}
	}
	setReplay(r, &st, traced)
	setCodecs(r, traced.wire)
	r.spans = tr.spans
	return r, nil
}
