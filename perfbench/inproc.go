package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"jouleguard/internal/server"
	"jouleguard/internal/wire"
)

// inproc-governor: one in-process server.Server, no sockets, on the
// Server platform (1024 system configurations). Eight long
// factor-priced sessions and one short session at a time, run
// round-robin. All the time goes to the governor and the server's
// session path; wire, client and cluster do nothing here.

const (
	warmIters = 1000 // per long session, excluded from every sample
	// inprocShortIters is the short sessions' length: one completes
	// about every 18 000 iterations of the round-robin, about 140 in a
	// 10 s phase on a 2-vCPU Xeon.
	inprocShortIters = 2000
	// inprocHeapAfter is where heap_mb is read: about 40% into a 10 s
	// phase on a 2-vCPU Xeon.
	inprocHeapAfter = 1_000_000
)

func inprocPlans(seed int64) []sessionPlan { return servingPlans(seed, "tenant", 8, longIters) }

func inprocShortPlans(seed int64) []sessionPlan {
	return servingPlans(seed+shortSeedSalt, "short", shortPlanCount, inprocShortIters)
}

type inprocSession struct {
	plan   sessionPlan
	id     string
	grantJ float64
	t      *tenant
	last   wire.DoneResponse
	served []served
}

type inprocRig struct {
	srv      *server.Server
	sess     []*inprocSession
	ids      []string
	register hist
	close    hist

	shortPlans []sessionPlan
	short      *inprocSession // the short session in flight
	shorts     int            // short sessions opened
	closed     closedUse
}

func startInproc(plans, shortPlans []sessionPlan) (*inprocRig, error) {
	var pool float64
	for _, p := range append(plans, shortPlans[0]) {
		m, err := model(p.App, p.Platform)
		if err != nil {
			return nil, err
		}
		pool += float64(p.Iterations) * m.defaultJ / p.Factor
	}
	srv, err := server.New(server.Config{GlobalBudgetJ: pool * server.DefaultReserve * 1.5})
	if err != nil {
		return nil, err
	}
	rig := &inprocRig{srv: srv, shortPlans: shortPlans}
	for _, p := range plans {
		s, err := rig.open(p)
		if err != nil {
			rig.stop()
			return nil, err
		}
		rig.sess = append(rig.sess, s)
		rig.ids = append(rig.ids, s.id)
	}
	for _, s := range rig.sess {
		for i := 0; i < warmIters; i++ {
			if _, err := rig.iterate(s, nil); err != nil {
				rig.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return rig, nil
}

// open registers one session, timing the call.
func (rig *inprocRig) open(p sessionPlan) (*inprocSession, error) {
	m, err := model(p.App, p.Platform)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := rig.srv.Register(wire.RegisterRequest{Tenant: p.Tenant, App: p.App, Platform: p.Platform,
		Iterations: p.Iterations, Factor: p.Factor, Seed: p.Seed})
	rig.register.addDur(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("register %s: %w", p.Tenant, err)
	}
	return &inprocSession{plan: p, id: resp.SessionID, grantJ: resp.GrantJ, t: newTenant(m, p.Offset)}, nil
}

func (rig *inprocRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = rig.srv.Shutdown(ctx)
}

// iterate runs one governed iteration: Next, the application, Done, and
// samples the two calls into ps (nil during warm-up). In a traced phase
// each call gets a span, and the decision and the wire values are kept
// for the replays.
func (rig *inprocRig) iterate(s *inprocSession, ps *phaseStats) (float64, error) {
	var tr *tracer
	if ps != nil {
		tr = ps.tr
	}
	root := tr.newID()
	next := wire.NextRequest{NowS: s.t.clock}
	t0 := time.Now()
	n, err := rig.srv.Next(s.id, next)
	t1 := tr.record("server.next", root, 0, root, t0)
	if err != nil {
		return 0, fmt.Errorf("%s Next: %w", s.id, err)
	}
	acc := s.t.step(n.AppConfig, n.SysConfig)
	done := wire.DoneRequest{NowS: s.t.clock, EnergyJ: s.t.energy, Accuracy: acc}
	t2 := time.Now()
	d, err := rig.srv.Done(s.id, done)
	t3 := tr.record("server.done", root, 0, root, t2)
	if err != nil {
		return 0, fmt.Errorf("%s Done: %w", s.id, err)
	}
	s.last = d
	if ps == nil {
		return acc, nil
	}
	ps.sample(t3, t1.Sub(t0)+t3.Sub(t2), 2)
	ps.accSum += acc
	if tr != nil {
		tr.record("iteration", root, root, 0, t0)
		s.served = append(s.served, served{iter: n.Iter, app: n.AppConfig, sys: n.SysConfig})
		ps.keepWire(wireSample{done: done, next: next, doneResp: d, nextResp: n})
	}
	return acc, nil
}

// loop runs the long sessions and the short session in flight
// round-robin until the deadline, replacing each short session as it
// completes.
func (rig *inprocRig) loop(deadline time.Time, ps *phaseStats) {
	for {
		if rig.short == nil {
			p := rig.shortPlans[rig.shorts%len(rig.shortPlans)]
			rig.shorts++
			ps.ops++
			t0 := time.Now()
			s, err := rig.open(p)
			ps.open.addDur(time.Since(t0))
			if err != nil {
				ps.fail(err)
				return
			}
			rig.short = s
		}
		for _, s := range rig.sess {
			if _, err := rig.iterate(s, ps); err != nil {
				ps.fail(err)
				return
			}
		}
		if _, err := rig.iterate(rig.short, ps); err != nil {
			ps.fail(err)
			return
		}
		if rig.short.last.IterationsDone >= rig.short.plan.Iterations {
			ps.ops++
			t0 := time.Now()
			resp, err := rig.srv.Close(rig.short.id)
			rig.close.addDur(time.Since(t0))
			if err != nil {
				ps.fail(fmt.Errorf("close %s: %w", rig.short.id, err))
				return
			}
			rig.closed.add(rig.short.plan, resp.SpentJ, rig.short.t.energy, rig.short.grantJ)
			rig.short = nil
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// checkLedgers runs the checks every inproc run makes: every completed
// short session within its grant, and the broker's conservation. It
// reports the worst use: the short sessions' spend over grant, or a long
// session's use per iteration (grantUse), which the check cannot judge
// mid-horizon.
func (rig *inprocRig) checkLedgers(r *report) {
	worst := rig.closed.worst
	for _, s := range rig.sess {
		worst = max(worst, grantUse(s.last.SpentJ, s.grantJ, s.last.IterationsDone, s.plan.Iterations))
	}
	r.set("grant_use_max", worst)
	rig.closed.check(r)
	checkBroker(r, "daemon", rig.srv)
}

func checkBroker(r *report, who string, srv *server.Server) {
	info := srv.Broker().Info()
	r.check(info.CommittedJ+info.ConsumedJ <= info.GlobalJ*(1+1e-9),
		"%s broker over-committed: committed %.1f + consumed %.1f > global %.1f",
		who, info.CommittedJ, info.ConsumedJ, info.GlobalJ)
}

func runInproc(c *runCfg) (*report, error) {
	r := newReport()
	plans := inprocPlans(c.seed)
	rig, err := startInproc(plans, inprocShortPlans(c.seed))
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	r.attempted += len(plans)
	if c.setupDone() {
		return r, nil
	}

	heap0 := liveHeap()
	plain := drive(c.phase(), inprocHeapAfter, false, rig.loop)
	r.setEndToEnd(plain)
	r.set("open_p50_ms", plain.open.quantile(0.5)/1e6)
	rig.checkLedgers(r)
	if !c.trace {
		return r, nil
	}

	traced := drive(c.phase(), 0, true, rig.loop)
	r.count(traced)
	rig.checkLedgers(r)
	tr := traced.tr
	r.setLayerCommon(plain, traced, heap0)
	r.set("server.next_us", tr.us("server.next"))
	r.set("server.done_us", tr.us("server.done"))
	r.set("server.register_us", rig.register.quantile(0.5)/1e3)
	daemonLayers(r, []daemon{{rig.srv, rig.srv.Handler()}}, plain.iters+traced.iters)

	var st replayStats
	for _, s := range rig.sess {
		exp, ok := exportOne(rig.srv, s.id, rig.ids)
		if !ok {
			r.check(false, "session %s missing from the daemon's export", s.id)
			continue
		}
		if err := replaySession(exp, s.served, &st); err != nil {
			r.check(false, "governor replay: %v", err)
		}
	}
	setReplay(r, &st, traced)
	setCodecs(r, traced.wire)
	r.set("server.self_us", r.metrics["server.next_us"]+r.metrics["server.done_us"]-
		r.metrics["governor.next_us"]-r.metrics["governor.done_us"])
	reconcile(r, tr, &st, plain)

	for _, s := range rig.sess {
		t0 := time.Now()
		_, err := rig.srv.Close(s.id)
		rig.close.addDur(time.Since(t0))
		r.attempted++
		if err != nil {
			r.failed++
			r.check(false, "close %s: %v", s.id, err)
		}
	}
	r.set("server.close_us", rig.close.quantile(0.5)/1e3)
	r.spans = tr.spans
	return r, nil
}

// reconcile checks that the layer figures add up (inproc-governor). The
// traced server calls' mean, Next plus Done, must land within
// reconcileTolPct of the untraced phase's iteration mean, which times
// the same two calls untraced (iter_p50_us's samples). The replayed
// governor's mean must fit inside the server calls' mean, so that
// server.self_us, their difference, is not negative beyond the same
// tolerance.
func reconcile(r *report, tr *tracer, st *replayStats, plain *phaseStats) {
	serverMean := tr.meanUS("server.next") + tr.meanUS("server.done")
	iterMean := plain.iter.mean() / 1e3
	govMean := st.next.mean()/1e3 + st.done.mean()/1e3
	rec := 100 * (serverMean - iterMean) / iterMean
	r.set("bench.reconcile_pct", rec)
	r.check(rec > -reconcileTolPct && rec < reconcileTolPct,
		"traced server calls' mean %.3f us vs untraced iteration mean %.3f us: off by %.1f%%, beyond %.0f%%",
		serverMean, iterMean, rec, reconcileTolPct)
	r.check(govMean > 0 && govMean <= serverMean*(1+reconcileTolPct/100),
		"replayed governor mean %.3f us does not fit inside the server calls' %.3f us", govMean, serverMean)
}

// reconcileTolPct is how far the layer sums may sit from the end-to-end
// figure they should add up to.
const reconcileTolPct = 25.0

// daemon is one governor daemon the benchmark reads back from: its
// server and the handler its wire surface is served by.
type daemon struct {
	srv *server.Server
	h   http.Handler
}

// daemonLayers fills the per-layer figures read from the daemons' own
// surfaces at the end of a traced run, summed over the daemons: the
// decision histogram and the QoS counters from /metrics, the span
// buffer, a snapshot, the broker and the session list.
func daemonLayers(r *report, ds []daemon, iters int) {
	var decSum, decN, snapBytes, retained float64
	var spans uint64
	var snap time.Duration
	var admitted, rejected int
	for _, d := range ds {
		m, err := scrape(d.h, "/metrics")
		if err != nil {
			r.check(false, "%v", err)
			return
		}
		decSum += m["jouleguardd_decision_seconds_sum"]
		decN += m["jouleguardd_decision_seconds_count"]
		r.metrics["qos.denials"] += m["jouleguard_qos_throttled_total"] +
			m["jouleguard_qos_suspended_registrations_total"] + m["jouleguard_qos_shed_total"]
		r.metrics["qos.escalations"] += m["jouleguard_qos_escalations_total"]
		spans += d.srv.Telemetry().Spans.Total()

		var cw countingWriter
		t0 := time.Now()
		if err := d.srv.Snapshot(&cw); err != nil {
			r.check(false, "snapshot: %v", err)
		}
		snap += time.Since(t0)
		snapBytes += float64(cw.n)

		info := d.srv.Broker().Info()
		admitted += info.Admitted
		rejected += info.Rejected
		rec := httptest.NewRecorder()
		d.h.ServeHTTP(rec, httptest.NewRequest("GET", wire.BasePath, nil))
		var list wire.ListResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
			r.check(false, "listing sessions: %v", err)
		}
		retained += float64(len(list.Sessions))
	}
	if decN > 0 {
		r.set("server.decision_us", 1e6*decSum/decN)
	}
	r.set("telemetry.spans_per_kiter", 1000*float64(spans)/float64(max(iters, 1)))
	r.set("server.snapshot_ms", float64(snap)/1e6)
	r.set("server.snapshot_bytes", snapBytes)
	if n := admitted + rejected; n > 0 {
		r.set("broker.reject_ratio", float64(rejected)/float64(n))
	}
	r.set("server.retained_sessions", retained)
}

// setReplay fills the governor-layer figures from a replay.
func setReplay(r *report, st *replayStats, traced *phaseStats) {
	r.check(st.checked > 0, "the governor replay checked no served decision")
	r.set("governor.next_us", st.next.quantile(0.5)/1e3)
	r.set("governor.done_us", st.done.quantile(0.5)/1e3)
	r.set("core.decide_us", st.decide.quantile(0.5)/1e3)
	r.set("core.observe_us", st.observe.quantile(0.5)/1e3)
	r.set("guard.self_us", r.metrics["governor.done_us"]-r.metrics["core.observe_us"])
	if st.iters > 0 {
		r.set("core.explore_ratio", float64(st.exploring)/float64(st.iters))
	}
	if st.guardTotal > 0 {
		r.set("guard.reject_ratio", float64(st.guardRejected)/float64(st.guardTotal))
	}
}

// setCodecs fills the codec figures from the run's wire values.
func setCodecs(r *report, samples []wireSample) {
	frameNs, jsonNs, err := codecReplay(samples)
	if err != nil {
		r.check(false, "codec replay: %v", err)
		return
	}
	r.set("wire.frame_codec_ns", frameNs)
	r.set("wire.json_codec_us", jsonNs/1e3)
}
