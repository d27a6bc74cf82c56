package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"jouleguard/internal/client"
	"jouleguard/internal/cluster"
	"jouleguard/internal/server"
	"jouleguard/internal/wire"
)

// fleet-v2: an in-process coordinator with a WAL in the run's directory
// plus three member daemons on loopback, heartbeating at the
// coordinator's suggested cadence. Two long sessions and one short
// session at a time, driven round-robin, placed through the coordinator
// and streaming batched v2 DoneNext frames; same apps, platform and
// factor as inproc-governor.
//
// serve-v2: the same sessions and load against one daemon on loopback,
// with no coordinator: the v2 path (client, socket, frame codec, server)
// without the cluster layer.

const (
	fleetNodes = 3
	// fleetHeapAfter is where heap_mb is read: about 40% into a 10 s
	// phase on a 2-vCPU Xeon.
	fleetHeapAfter = 200_000
	// sessionKeyPrefix starts every session key the benchmark registers.
	sessionKeyPrefix = "bench-"
	// fleetShortIters is the short sessions' length: one completes about
	// every 3 000 iterations of the round-robin, about 140 in a 10 s
	// phase on a 2-vCPU Xeon.
	fleetShortIters = 1000
)

func fleetPlans(seed int64) []sessionPlan { return servingPlans(seed, "tenant", 2, longIters) }

func fleetShortPlans(seed int64) []sessionPlan {
	return servingPlans(seed+shortSeedSalt, "short", shortPlanCount, fleetShortIters)
}

// listener serves one handler on a loopback port until closed.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return serve(ln, h), nil
}

func serve(ln net.Listener, h http.Handler) *listener {
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln)
	}()
	return l
}

// close stops the listener and waits for its serve loop to return.
func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

type fleetNode struct {
	srv    *server.Server
	member *cluster.Member // nil on serve-v2
	h      http.Handler    // the daemon's own handler, untimed
	timer  *routeTimer
	l      *listener
}

type fleetSession struct {
	plan   sessionPlan
	key    string
	cs     *client.Session
	t      *tenant
	acc    float64 // accuracy of the iteration in flight, settled by the next DoneNext
	armed  int     // iteration the session has armed
	served []served
}

type fleetRig struct {
	walPath    string
	httpc      *http.Client
	coord      *cluster.Coordinator // nil on serve-v2
	coordTimer *routeTimer
	coordL     *listener
	nodes      []*fleetNode
	sess       []*fleetSession
	clientOpen hist // client.Open
	upgrade    hist // the first Next, which upgrades the session to v2
	close      hist // client.Close of the short sessions

	shortPlans []sessionPlan
	short      *fleetSession // the short session in flight
	shorts     int           // short sessions opened
	closed     closedUse
}

// maybeTimed wraps h in a route timer when the run is traced.
func maybeTimed(h http.Handler, traced bool) (http.Handler, *routeTimer) {
	if !traced {
		return h, nil
	}
	rt := newRouteTimer(h)
	return rt, rt
}

// startFleet starts a coordinator and fleetNodes members when walPath is
// set (fleet-v2), or one standalone daemon when it is empty (serve-v2),
// then opens and warms up the long sessions.
func startFleet(plans, shortPlans []sessionPlan, walPath string, traced bool) (*fleetRig, error) {
	var fleetJ float64
	for _, p := range append(plans, shortPlans[0]) {
		m, err := model(p.App, p.Platform)
		if err != nil {
			return nil, err
		}
		fleetJ += float64(p.Iterations) * m.defaultJ / p.Factor
	}
	rig := &fleetRig{walPath: walPath, shortPlans: shortPlans,
		httpc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
	var err error
	if walPath == "" {
		err = rig.startStandalone(fleetJ*server.DefaultReserve*3, traced)
	} else {
		err = rig.startCluster(fleetJ*server.DefaultReserve*3, traced)
	}
	if err != nil {
		rig.stop()
		return nil, err
	}
	for i, p := range plans {
		s, err := rig.openSession(p, fmt.Sprintf("%s%d", sessionKeyPrefix, i))
		if err != nil {
			rig.stop()
			return nil, err
		}
		rig.sess = append(rig.sess, s)
	}
	for _, s := range rig.sess {
		for i := 0; i < warmIters; i++ {
			if _, err := s.iterate(nil); err != nil {
				rig.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return rig, nil
}

// startStandalone starts one daemon on loopback with a budget of budgetJ.
func (rig *fleetRig) startStandalone(budgetJ float64, traced bool) error {
	srv, err := server.New(server.Config{GlobalBudgetJ: budgetJ})
	if err != nil {
		return err
	}
	nd := &fleetNode{srv: srv, h: srv.Handler()}
	rig.nodes = append(rig.nodes, nd)
	h, timer := maybeTimed(nd.h, traced)
	nd.timer = timer
	nd.l, err = listen(h)
	return err
}

// startCluster starts the coordinator, with a fleet budget of budgetJ,
// and fleetNodes members that join it.
func (rig *fleetRig) startCluster(budgetJ float64, traced bool) error {
	coord, err := cluster.New(cluster.Config{FleetBudgetJ: budgetJ, WALPath: rig.walPath})
	if err != nil {
		return err
	}
	rig.coord = coord
	var h http.Handler
	h, rig.coordTimer = maybeTimed(coord.Handler(), traced)
	if rig.coordL, err = listen(h); err != nil {
		return err
	}
	for i := 0; i < fleetNodes; i++ {
		srv, err := server.New(server.Config{GlobalBudgetJ: cluster.MemberSeedBudgetJ})
		if err != nil {
			return err
		}
		nd := &fleetNode{srv: srv}
		rig.nodes = append(rig.nodes, nd)
		// Listen first so the member can advertise its address at join.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		nd.member, err = cluster.NewMember(cluster.MemberConfig{
			CoordinatorURL: rig.coordL.url, Node: fmt.Sprintf("node%d", i),
			Advertise: "http://" + ln.Addr().String(), Server: srv,
		})
		if err != nil {
			ln.Close()
			return err
		}
		nd.h = nd.member.Handler()
		h, nd.timer = maybeTimed(nd.h, traced)
		nd.l = serve(ln, h)
		if err := nd.member.Run(); err != nil {
			return fmt.Errorf("node%d join: %w", i, err)
		}
	}
	return nil
}

// openSession registers a session, through the coordinator in a fleet,
// and takes its first decision, the one that upgrades it to the v2 frame
// stream.
func (rig *fleetRig) openSession(p sessionPlan, key string) (*fleetSession, error) {
	m, err := model(p.App, p.Platform)
	if err != nil {
		return nil, err
	}
	s := &fleetSession{plan: p, key: key, t: newTenant(m, p.Offset)}
	opts := client.Options{
		Key: key, Tenant: p.Tenant, App: p.App, Platform: p.Platform,
		Iterations: p.Iterations, Factor: p.Factor, Seed: p.Seed, HTTPClient: rig.httpc,
	}
	if rig.coord != nil {
		opts.CoordinatorURL = rig.coordL.url
	} else {
		opts.BaseURL = rig.nodes[0].l.url
	}
	t0 := time.Now()
	s.cs, err = client.Open(context.Background(), opts, s.t.readEnergy, s.t.now)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", key, err)
	}
	app, sys, err := s.cs.Next(context.Background())
	t2 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("first Next %s: %w", key, err)
	}
	rig.clientOpen.addDur(t1.Sub(t0))
	rig.upgrade.addDur(t2.Sub(t1))
	s.served = append(s.served, served{iter: 0, app: app, sys: sys})
	s.acc = s.t.step(app, sys)
	return s, nil
}

// iterate settles the iteration in flight and takes the next decision in
// one DoneNext round trip, then runs the application on it. It returns
// the settled iteration's accuracy.
func (s *fleetSession) iterate(ps *phaseStats) (float64, error) {
	settled := s.acc
	var done wire.DoneRequest
	var tr *tracer
	if ps != nil {
		tr = ps.tr
	}
	if tr != nil {
		done = wire.DoneRequest{NowS: s.t.clock, EnergyJ: s.t.energy, Accuracy: settled}
	}
	t0 := time.Now()
	app, sys, err := s.cs.DoneNext(context.Background(), settled)
	t1 := tr.record("client.donenext", 0, 0, 0, t0)
	if err != nil {
		return 0, fmt.Errorf("%s DoneNext: %w", s.cs.ID(), err)
	}
	s.armed++
	if ps != nil {
		ps.sample(t1, t1.Sub(t0), 2)
		if tr != nil {
			s.served = append(s.served, served{iter: s.armed, app: app, sys: sys})
			ps.keepWire(wireSample{done: done, next: wire.NextRequest{NowS: s.t.clock},
				doneResp: s.cs.LastStatus(), nextResp: wire.NextResponse{Iter: s.armed, AppConfig: app, SysConfig: sys}})
		}
	}
	s.acc = s.t.step(app, sys)
	return settled, nil
}

// loop runs the long sessions and the short session in flight
// round-robin until the deadline, replacing each short session as it
// completes.
func (rig *fleetRig) loop(deadline time.Time, ps *phaseStats) {
	for time.Now().Before(deadline) {
		if rig.short == nil {
			p := rig.shortPlans[rig.shorts%len(rig.shortPlans)]
			rig.shorts++
			ps.ops++
			t0 := time.Now()
			s, err := rig.openSession(p, fmt.Sprintf("%sshort-%d", sessionKeyPrefix, rig.shorts))
			ps.open.addDur(time.Since(t0))
			if err != nil {
				ps.fail(err)
				return
			}
			rig.short = s
		}
		for _, s := range rig.sess {
			acc, err := s.iterate(ps)
			if err != nil {
				ps.fail(err)
				return
			}
			ps.accSum += acc
		}
		if err := rig.stepShort(ps); err != nil {
			ps.fail(err)
			return
		}
	}
}

// stepShort runs one iteration of the short session in flight. Its last
// iteration is settled with Done instead of DoneNext, and the session
// closed and held to its grant.
func (rig *fleetRig) stepShort(ps *phaseStats) error {
	s := rig.short
	if s.armed+1 < s.plan.Iterations {
		acc, err := s.iterate(ps)
		ps.accSum += acc
		return err
	}
	t0 := time.Now()
	err := s.cs.Done(context.Background(), s.acc)
	t1 := ps.tr.record("client.done", 0, 0, 0, t0)
	if err != nil {
		return fmt.Errorf("%s Done: %w", s.cs.ID(), err)
	}
	ps.sample(t1, t1.Sub(t0), 1)
	ps.accSum += s.acc
	ps.ops++
	t0 = time.Now()
	err = s.cs.Close(context.Background())
	rig.close.addDur(time.Since(t0))
	if err != nil {
		return fmt.Errorf("close %s: %w", s.cs.ID(), err)
	}
	if n := s.cs.Failovers(); n > 0 {
		return fmt.Errorf("%s failed over %d times", s.key, n)
	}
	rig.closed.add(s.plan, s.cs.LastStatus().SpentJ, s.t.energy, s.cs.GrantJ())
	rig.short = nil
	return nil
}

func (rig *fleetRig) iterations() int {
	n := 0
	for _, s := range rig.sess {
		n += s.cs.LastStatus().IterationsDone
	}
	return n
}

// checkLedgers checks every completed short session within its grant,
// each daemon's broker, and the coordinator's fleet ledger, and reports
// the worst use as inproc-governor does.
func (rig *fleetRig) checkLedgers(r *report) {
	worst := rig.closed.worst
	for _, s := range rig.sess {
		st := s.cs.LastStatus()
		worst = max(worst, grantUse(st.SpentJ, s.cs.GrantJ(), st.IterationsDone, s.plan.Iterations))
	}
	r.set("grant_use_max", worst)
	rig.closed.check(r)
	for i, nd := range rig.nodes {
		checkBroker(r, fmt.Sprintf("node%d", i), nd.srv)
	}
	for _, s := range rig.sess {
		r.check(s.cs.Failovers() == 0, "%s failed over %d times", s.key, s.cs.Failovers())
	}
	if rig.coord == nil {
		return
	}
	r.check(rig.coord.Violations() == 0, "coordinator reports %d ledger invariant violations", rig.coord.Violations())
	info := rig.coord.Info(false)
	r.check(info.NodesLive == fleetNodes && info.Reassignments == 0,
		"fleet lost a node: %d of %d live, %d sessions reassigned", info.NodesLive, fleetNodes, info.Reassignments)
	r.check(info.LeasedUnspentJ+info.ConsumedJ <= info.FleetJ*(1+1e-9),
		"fleet over-leased: unspent %.1f + consumed %.1f > budget %.1f", info.LeasedUnspentJ, info.ConsumedJ, info.FleetJ)
}

func (rig *fleetRig) stop() {
	for _, s := range append(rig.sess, rig.short) {
		if s != nil {
			_ = s.cs.Close(context.Background())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, nd := range rig.nodes {
		if nd.member != nil {
			nd.member.Stop()
		}
		_ = nd.srv.Shutdown(ctx)
		if nd.l != nil {
			nd.l.close()
		}
	}
	if rig.coordL != nil {
		rig.coordL.close()
	}
	if rig.coord != nil {
		rig.coord.Stop()
		_ = os.Remove(rig.walPath)
	}
	rig.httpc.CloseIdleConnections()
}

func runFleet(c *runCfg) (*report, error) {
	return runV2(c, filepath.Join(c.dir, "coordinator.wal"))
}

func runServeV2(c *runCfg) (*report, error) { return runV2(c, "") }

// runV2 runs fleet-v2 when walPath is set and serve-v2 when it is empty.
func runV2(c *runCfg, walPath string) (*report, error) {
	r := newReport()
	plans := fleetPlans(c.seed)
	rig, err := startFleet(plans, fleetShortPlans(c.seed), walPath, c.trace)
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	r.attempted += len(plans) * 2
	if c.setupDone() {
		return r, nil
	}

	var beats0 float64
	if rig.coord != nil {
		beats0 = scrapeCounter(rig.coord.Handler(), "jouleguard_cluster_heartbeats_total")
	}
	heap0 := liveHeap()
	plain := drive(c.phase(), fleetHeapAfter, false, rig.loop)
	r.setEndToEnd(plain)
	r.set("open_p50_ms", plain.open.quantile(0.5)/1e6)
	rig.checkLedgers(r)
	if !c.trace {
		return r, nil
	}

	traced := drive(c.phase(), 0, true, rig.loop)
	r.count(traced)
	rig.checkLedgers(r)
	elapsed := plain.elapsed + traced.elapsed
	tr := traced.tr
	r.setLayerCommon(plain, traced, heap0)
	r.set("client.donenext_us", tr.us("client.donenext"))
	r.set("client.done_us", tr.us("client.done"))

	iters := rig.iterations()
	var ds []daemon
	var fallback, registers, closes hist
	for _, nd := range rig.nodes {
		ds = append(ds, daemon{nd.srv, nd.h})
		n, d := nd.timer.route("POST next"), nd.timer.route("POST done")
		fallback.merge(&n)
		fallback.merge(&d)
	}
	daemonLayers(r, ds, iters)
	r.set("client.v1_fallback_ratio", float64(fallback.n)/float64(max(iters, 1)))
	if rig.coord != nil {
		beats := scrapeCounter(rig.coord.Handler(), "jouleguard_cluster_heartbeats_total") - beats0
		r.set("cluster.heartbeats_per_s", beats/elapsed.Seconds())
		if fi, err := os.Stat(rig.walPath); err == nil {
			r.set("cluster.wal_bytes_per_kiter", float64(fi.Size())/(float64(iters)/1000))
		}
		hb, hbBytes := rig.coordTimer.route("POST heartbeat"), rig.coordTimer.routeBytes("POST heartbeat")
		lease, place := rig.coordTimer.route("POST lease"), rig.coordTimer.route("GET key")
		r.set("cluster.heartbeat_us_p50", hb.quantile(0.5)/1e3)
		r.set("cluster.heartbeat_bytes_p50", hbBytes.quantile(0.5))
		r.set("cluster.extends", float64(lease.n))
		r.set("cluster.place_us", place.quantile(0.5)/1e3)
	}

	var st replayStats
	for _, s := range rig.sess {
		exp, ok := findExport(rig.nodes, s)
		if !ok {
			r.check(false, "session %s missing from every member's export", s.cs.ID())
			continue
		}
		if err := replaySession(exp, s.served, &st); err != nil {
			r.check(false, "governor replay: %v", err)
		}
	}
	setReplay(r, &st, traced)
	setCodecs(r, traced.wire)
	r.set("transport.v2_us", r.metrics["client.donenext_us"]-r.metrics["server.decision_us"]-r.metrics["governor.done_us"])

	for _, nd := range rig.nodes {
		reg, cl := nd.timer.route("POST sessions"), nd.timer.route("DELETE session")
		registers.merge(&reg)
		closes.merge(&cl)
	}
	r.set("server.register_us", registers.quantile(0.5)/1e3)
	r.set("server.close_us", closes.quantile(0.5)/1e3)
	r.set("client.open_ms", rig.clientOpen.quantile(0.5)/1e6)
	r.set("client.next_us", rig.upgrade.quantile(0.5)/1e3)
	r.set("client.close_us", rig.close.quantile(0.5)/1e3)
	r.spans = tr.spans
	return r, nil
}

// findExport finds a fleet session on whichever member owns it, by key
// (session ids are only unique per daemon).
func findExport(nodes []*fleetNode, s *fleetSession) (server.SessionExport, bool) {
	for _, nd := range nodes {
		for _, e := range nd.srv.Export(nil) {
			if e.Key == s.key {
				return e, true
			}
		}
	}
	return server.SessionExport{}, false
}

// scrapeCounter reads one unlabeled series from a handler's /metrics.
func scrapeCounter(h http.Handler, name string) float64 {
	m, err := scrape(h, "/metrics")
	if err != nil {
		return 0
	}
	return m[name]
}
