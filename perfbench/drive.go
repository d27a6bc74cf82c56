package main

import "time"

// Load shape shared by the serving workloads: closed loops (each
// application waits for its decision). inproc-governor, serve-v2 and
// fleet-v2 run one load goroutine: on a 2-vCPU machine two contend with each other
// and with the program's own goroutines, and their figures turn bimodal
// (README.md). v1-churn runs two (churnDrivers), which stayed steady.
const (
	// Cold set-ups per run, each in a fresh process; the median is
	// reported. A run times at least setupReps of them, and more until
	// setupMinTime has passed: a set-up of a tenth of a second spreads
	// by a quarter from one process to the next, and the median of five
	// does not hold still from run to run.
	setupReps    = 5
	setupMinTime = 2 * time.Second
	// guaranteeSlack is the energy guarantee every run checks: no
	// tenant spends more than 1.05x its grant.
	guaranteeSlack = 1.05
)

// servingApps and servingFactor price the long sessions of the
// in-process, serve and fleet workloads, and the short sessions beside them, on
// the Server platform. Every pair is feasible at this factor
// (Oracle.MaxFeasibleFactor is at least 2.1).
var servingApps = []string{"swaptions", "radar", "swish++", "streamcluster", "streamcluster"}

const servingFactor = 1.5

// Short sessions run one at a time beside the long sessions of
// inproc-governor, serve-v2 and fleet-v2, in the same round-robin. Each is
// registered for a length the run completes, closed when done and
// replaced by the next. Their opens are open_p50_ms's samples, and their
// closes are where those workloads' energy guarantee binds: a long
// session never finishes, so its whole spend is never due.
const (
	shortPlanCount = 64 // plans the short sessions cycle through
	// shortSeedSalt keeps the short sessions' draws apart from the long
	// sessions' for the same workload seed.
	shortSeedSalt = 1 << 40
)

// winLen is the length of the windows a phase is cut into. Timings are
// reported as medians over windows, so a burst of interference from
// outside the process moves a few windows, not the figure.
const winLen = time.Second

// window is what the load loop measured in one window of a phase.
type window struct {
	iter      hist
	decisions int
}

// phaseStats is what the load loop measured during one phase.
type phaseStats struct {
	start     time.Time
	wins      []window
	iter      hist          // per-iteration program time as the application sees it
	open      hist          // session opens as the application sees them
	iters     int           // governed iterations completed
	decisions int           // Next and Done decisions served (a DoneNext is two)
	ops       int           // other operations attempted (short session opens and closes)
	accSum    float64       // delivered accuracy, summed over iterations
	callTime  time.Duration // time inside program calls
	failed    int
	errs      []error
	drivers   int // load goroutines merged into this phase; 0 for one
	tr        *tracer
	wire      []wireSample
	elapsed   time.Duration // phase wall time
	cpu       time.Duration // process CPU over the phase

	// heapAfter is the iteration count at which the live heap is read,
	// so heap_mb does not grow with the program's speed; a phase that
	// never gets there reads it at its end. heapIters is the count it
	// was read at.
	heapAfter int
	heap      uint64
	heapIters int
}

func (p *phaseStats) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// sample records one governed iteration that ended at end and spent d in
// program calls, with the decisions it took.
func (p *phaseStats) sample(end time.Time, d time.Duration, decisions int) {
	p.iter.addDur(d)
	p.callTime += d
	p.iters++
	p.decisions += decisions
	if p.iters == p.heapAfter {
		p.readHeap()
	}
	if p.start.IsZero() {
		return
	}
	w := int(end.Sub(p.start) / winLen)
	for len(p.wins) <= w {
		p.wins = append(p.wins, window{})
	}
	p.wins[w].iter.addDur(d)
	p.wins[w].decisions += decisions
}

func (p *phaseStats) readHeap() {
	p.heap, p.heapIters = liveHeap(), p.iters
}

// windows returns the phase's complete windows.
func (p *phaseStats) windows() []window {
	n := min(int(p.elapsed/winLen), len(p.wins))
	return p.wins[:n]
}

// merge folds what another driver measured over the same phase into p.
func (p *phaseStats) merge(o *phaseStats) {
	for len(p.wins) < len(o.wins) {
		p.wins = append(p.wins, window{})
	}
	for i := range o.wins {
		p.wins[i].iter.merge(&o.wins[i].iter)
		p.wins[i].decisions += o.wins[i].decisions
	}
	p.iter.merge(&o.iter)
	p.open.merge(&o.open)
	p.iters += o.iters
	p.decisions += o.decisions
	p.ops += o.ops
	p.accSum += o.accSum
	p.callTime += o.callTime
	p.failed += o.failed
	p.errs = append(p.errs, o.errs...)
	p.wire = append(p.wire, o.wire...)
	p.tr.merge(o.tr)
	if o.heapIters > 0 {
		p.heap, p.heapIters = o.heap, o.heapIters
	}
	p.drivers++
}

// keepWire keeps an iteration's wire values for the codec replay, up to
// a bound.
func (p *phaseStats) keepWire(s wireSample) {
	if p.tr != nil && len(p.wire) < wireSampleCap {
		p.wire = append(p.wire, s)
	}
}

// drive runs the load loop until the deadline and returns what it
// measured, reading the live heap once heapAfter iterations are done.
// loop must return once the deadline passes.
func drive(d time.Duration, heapAfter int, traced bool, loop func(deadline time.Time, ps *phaseStats)) *phaseStats {
	cpu0 := cpuTime()
	start := time.Now()
	ps := &phaseStats{start: start, heapAfter: heapAfter}
	if traced {
		ps.tr = newTracer()
	}
	loop(start.Add(d), ps)
	ps.elapsed = time.Since(start)
	ps.cpu = cpuTime() - cpu0
	if ps.heapIters == 0 {
		ps.readHeap()
	}
	return ps
}

// windowTimings returns the medians over the phase's windows of each
// window's p50 and p95 sample (over windows in which a sample ended) and
// decision rate. A phase shorter than one window, or one whose first
// window saw no sample end, is reported whole.
func (p *phaseStats) windowTimings() (p50, p95, rate float64) {
	winSecs := winLen.Seconds()
	wins := p.windows()
	if len(wins) == 0 || wins[0].iter.n == 0 {
		wins = []window{{iter: p.iter, decisions: p.decisions}}
		winSecs = p.elapsed.Seconds()
	}
	var p50s, p95s, rates []float64
	for _, w := range wins {
		rates = append(rates, float64(w.decisions)/winSecs)
		if w.iter.n > 0 {
			p50s = append(p50s, w.iter.quantile(0.5))
			p95s = append(p95s, w.iter.quantile(0.95))
		}
	}
	return median(p50s), median(p95s), median(rates)
}

// count books a phase's operations and failures into the report.
func (r *report) count(ps *phaseStats) {
	r.attempted += ps.decisions + ps.ops + ps.failed
	r.failed += ps.failed
	for _, err := range ps.errs {
		r.check(false, "%v", err)
	}
	r.check(ps.iters > 0, "no iteration completed in the measured phase")
}

// setEndToEnd counts the untraced phase and fills the metrics every
// serving workload derives from it the same way.
func (r *report) setEndToEnd(ps *phaseStats) {
	r.count(ps)
	if ps.iters == 0 {
		return
	}
	p50, p95, rate := ps.windowTimings()
	r.set("iter_p50_us", p50/1e3)
	r.set("iter_p95_us", p95/1e3)
	r.set("decisions_per_s", rate)
	r.set("accuracy_mean", ps.accSum/float64(ps.iters))
	r.set("heap_mb", float64(ps.heap)/(1<<20))
	r.set("cpu_us_per_iter", float64(ps.cpu)/1e3/float64(ps.iters))
}

// setLayerCommon fills the per-layer figures every serving workload
// measures the same way, from its untraced and traced phases; heap0 is
// the live heap before the untraced phase.
func (r *report) setLayerCommon(plain, traced *phaseStats, heap0 uint64) {
	r.set("server.heap_bytes_per_iter", (float64(plain.heap)-float64(heap0))/float64(max(plain.heapIters, 1)))
	r.set("load.gen_share", 1-float64(plain.callTime)/float64(plain.elapsed)/float64(max(plain.drivers, 1)))
	if u := plain.iter.quantile(0.5); u > 0 {
		r.set("bench.trace_overhead_pct", 100*(traced.iter.quantile(0.5)-u)/u)
	}
	r.set("apps.testbed_build_s", testbedBuild.Seconds())
}

// closedUse tracks the sessions a workload ran to completion and
// closed: the daemon's bill over the grant and, for the worst one, what
// the application's own energy counter read over the grant. The bill is
// what the daemon's sensor guard accepted of the client's readings, or
// what its meter measured (v1-churn), so the two differ a little on a
// governor miss and a lot on a billing error.
type closedUse struct {
	n               int
	worst, worstOwn float64
	plan            sessionPlan // the worst session's plan
}

func (c *closedUse) add(p sessionPlan, billedJ, ownJ, grantJ float64) {
	c.n++
	if use := billedJ / grantJ; use > c.worst {
		c.worst, c.worstOwn, c.plan = use, ownJ/grantJ, p
	}
}

// check is the energy guarantee: no closed session billed more than
// guaranteeSlack times its grant. A run that closed none has checked
// nothing, and fails.
func (c *closedUse) check(r *report) {
	if c.n == 0 {
		r.check(false, "no session ran to completion, so the energy guarantee was never checked")
		return
	}
	p := c.plan
	r.check(c.worst <= guaranteeSlack, "%s (%s/%s, f=%.2f) was billed %.3fx its grant (its own energy counter read %.3fx)",
		p.Tenant, p.App, p.Platform, p.Factor, c.worst, c.worstOwn)
}
