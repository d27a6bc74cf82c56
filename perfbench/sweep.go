package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"jouleguard"
	"jouleguard/internal/apps"
	"jouleguard/internal/experiments"
	"jouleguard/internal/par"
	"jouleguard/internal/platform"
	"jouleguard/internal/telemetry"
)

// paper-sweep: the offline experiments.Sweep over every app x platform
// at the paper factors, at a fixed scale, with par at one worker (two
// made the figures swing with any other load on a 2-vCPU machine). The
// app kernels, platform models, the sim loop and the par pool do the
// work, with the governor but no daemon. Sweep takes no seed (every cell
// runs at its testbed's fixed seed), so the workload seed changes
// nothing here.

const (
	sweepScale   = 0.25
	sweepWorkers = 1
)

type sweepJob struct {
	app, plat string
	factor    float64
	iters     int
}

// sweepJobs lists the cells experiments.Sweep runs, in its order. The
// traced run checks its cells against Sweep's one for one, so a list
// that drifted from Sweep's would fail the run.
func sweepJobs() ([]sweepJob, error) {
	var jobs []sweepJob
	for _, plat := range platform.Names() {
		for _, app := range apps.Names() {
			_, orc, err := pairTestbed(app, plat)
			if err != nil {
				return nil, err
			}
			for _, f := range experiments.PaperFactors {
				if f <= orc.MaxFeasibleFactor() {
					jobs = append(jobs, sweepJob{app, plat, f, experiments.ItersFor(plat, sweepScale)})
				}
			}
		}
	}
	return jobs, nil
}

// sweepRig holds the reference result every later Sweep must equal.
type sweepRig struct {
	jobs []sweepJob
	ref  []experiments.SweepCell
}

func startSweep() (*sweepRig, error) {
	par.SetWorkers(sweepWorkers)
	jobs, err := sweepJobs()
	if err != nil {
		return nil, err
	}
	cells, err := experiments.Sweep(experiments.PaperFactors, sweepScale)
	if err != nil {
		return nil, err
	}
	return &sweepRig{jobs: jobs, ref: cells}, nil
}

// sweepPhase is what repeated Sweep calls measured. Each call is one
// sample of ps: worker time per simulated iteration, with two decisions
// (Decide and Observe) per simulated iteration.
type sweepPhase struct {
	ps       *phaseStats
	iters    int           // simulated iterations
	inSweep  time.Duration // wall time inside Sweep
	mismatch int           // calls whose cells differ from the reference

	// A sweep cell's session open, one pass over the job list per
	// window: the p50 of each pass, how many opens were attempted and
	// failed, and the first error.
	openP50s          []float64
	opens, openFailed int
	openErr           error
	openWall, openCPU time.Duration // spent on the passes, left out of the phase's rate and CPU
}

// openPass times the testbed, oracle and runtime each cell of the job
// list builds before its first decision (warm caches, as in Sweep).
func (rig *sweepRig) openPass(ph *sweepPhase) {
	t, cpu := time.Now(), cpuTime()
	opens := make([]float64, 0, len(rig.jobs))
	for _, j := range rig.jobs {
		t0 := time.Now()
		tb, _, err := pairTestbed(j.app, j.plat)
		if err == nil {
			_, err = tb.NewJouleGuard(j.factor, j.iters, jouleguard.Options{})
		}
		opens = append(opens, float64(time.Since(t0))/1e6)
		ph.opens++
		if err != nil {
			ph.openFailed++
			if ph.openErr == nil {
				ph.openErr = fmt.Errorf("building %s/%s: %w", j.app, j.plat, err)
			}
		}
	}
	ph.openP50s = append(ph.openP50s, quantileOf(opens, 0.5))
	ph.openWall += time.Since(t)
	ph.openCPU += cpuTime() - cpu
}

// run calls Sweep until the deadline, checking every result against the
// reference. In every window it also makes one pass of cell opens
// (about 40 ms): spread over the phase like the calls, their median
// over windows holds still where one burst of passes would catch the
// host in whatever state it was in at that moment.
func (rig *sweepRig) run(d time.Duration) (*sweepPhase, error) {
	cpu0 := cpuTime()
	start := time.Now()
	ph := &sweepPhase{ps: &phaseStats{start: start}}
	for time.Since(start) < d {
		if int(time.Since(start)/winLen) >= len(ph.openP50s) {
			rig.openPass(ph)
		}
		t0 := time.Now()
		cells, err := experiments.Sweep(experiments.PaperFactors, sweepScale)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		n := 0
		for _, c := range cells {
			n += c.Iterations
		}
		ph.ps.sample(t1, t1.Sub(t0)*sweepWorkers/time.Duration(n), 2*n)
		ph.iters += n
		ph.inSweep += t1.Sub(t0)
		if !reflect.DeepEqual(cells, rig.ref) {
			ph.mismatch++
		}
	}
	ph.ps.elapsed = time.Since(start) - ph.openWall
	ph.ps.cpu = cpuTime() - cpu0 - ph.openCPU
	ph.ps.readHeap()
	return ph, nil
}

// busySink integrates the par pool's jobs in flight over time.
type busySink struct {
	telemetry.Nop
	mu       sync.Mutex
	inFlight int
	last     time.Time
	busy     time.Duration
}

func (b *busySink) advance(delta int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	if !b.last.IsZero() {
		b.busy += time.Duration(b.inFlight) * now.Sub(b.last)
	}
	b.last = now
	b.inFlight += delta
}

func (b *busySink) JobStart(int) { b.advance(1) }
func (b *busySink) JobDone(bool) { b.advance(-1) }

func runSweep(c *runCfg) (*report, error) {
	r := newReport()
	rig, err := startSweep()
	if err != nil {
		return nil, err
	}
	defer par.SetWorkers(0)
	if c.setupDone() {
		return r, nil
	}

	var sink *busySink
	if c.trace {
		sink = &busySink{}
		jouleguard.SetRunnerTelemetry(sink)
	}
	ph, err := rig.run(c.phase())
	if err != nil {
		return nil, err
	}
	jouleguard.SetRunnerTelemetry(nil)
	calls := ph.ps.iters
	r.attempted += calls*len(rig.ref) + ph.opens
	r.failed += ph.openFailed
	if ph.openErr != nil {
		r.check(false, "%v", ph.openErr)
	}
	r.check(ph.mismatch == 0, "%d of %d Sweep calls returned cells that differ from the first", ph.mismatch, calls)
	r.set("open_p50_ms", median(ph.openP50s))
	// Calls take ~0.1 s, so a window holds a handful of them: timings are
	// medians over windows of the per-call figures, but the decision rate
	// is taken over the whole phase (per window it would step by calls).
	p50, p95, _ := ph.ps.windowTimings()
	r.set("iter_p50_us", p50/1e3)
	r.set("iter_p95_us", p95/1e3)
	r.set("decisions_per_s", float64(ph.ps.decisions)/ph.ps.elapsed.Seconds())
	r.set("heap_mb", float64(ph.ps.heap)/(1<<20))
	r.set("cpu_us_per_iter", float64(ph.ps.cpu)/1e3/float64(ph.iters))
	var accSum, worst float64
	for _, cell := range rig.ref {
		accSum += cell.MeanAccuracy
		worst = max(worst, cell.EnergyPerIter/cell.GoalPerIter)
	}
	r.set("accuracy_mean", accSum/float64(len(rig.ref)))
	r.set("grant_use_max", worst)

	if !c.trace {
		return r, nil
	}

	r.set("apps.testbed_build_s", testbedBuild.Seconds())
	r.set("par.busy_ratio", float64(sink.busy)/(float64(par.Workers())*float64(ph.ps.elapsed)))
	tr, traced, explored := rig.traced(c.phase(), r)
	untraced := ph.ps.iter.quantile(0.5)
	r.set("bench.trace_overhead_pct", 100*(quantileOf(traced, 0.5)-untraced)/untraced)
	r.set("apps.step_us", tr.us("apps.step"))
	r.set("core.decide_us", tr.us("core.decide"))
	r.set("core.observe_us", tr.us("core.observe"))
	// Self time of the simulation loop, from means: the untraced worker
	// time per iteration less the decorated calls inside it.
	meanIter := float64(ph.inSweep) * sweepWorkers / float64(ph.iters) / 1e3
	r.set("sim.self_us", meanIter-tr.meanUS("apps.step")-tr.meanUS("core.decide")-tr.meanUS("core.observe"))
	r.set("core.explore_ratio", float64(explored)/float64(max(tr.hist("core.decide").n, 1)))
	r.set("load.gen_share", 1-float64(ph.inSweep)/float64(ph.ps.elapsed))
	r.spans = tr.spans
	return r, nil
}

// traced runs the Sweep's job list through Testbed.Run with timing App
// and Governor decorators, on the par pool, until the deadline (at least
// one pass). Every pass's cells must equal the untraced Sweep's. It
// returns the merged tracer, the worker time per iteration of each pass,
// and how many decisions the runtimes took while exploring.
func (rig *sweepRig) traced(d time.Duration, r *report) (*tracer, []float64, int) {
	tr := newTracer()
	var perIter []float64
	explored := 0
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		tracers := make([]*tracer, len(rig.jobs))
		explores := make([]int, len(rig.jobs))
		t0 := time.Now()
		iters := 0
		err := par.Map(len(rig.jobs), func(i int) error {
			j := rig.jobs[i]
			jt := newTracer()
			tracers[i] = jt
			root := jt.newID()
			js := time.Now()
			tb, err := jouleguard.NewTestbed(j.app, j.plat)
			if err != nil {
				return err
			}
			app := &timedApp{App: tb.App}
			tb.App = app
			rt, err := tb.NewJouleGuard(j.factor, j.iters, jouleguard.Options{})
			if err != nil {
				return err
			}
			gov := &timedGov{gov: rt, on: true}
			t0 := time.Now()
			rec, err := tb.Run(gov, j.iters)
			jt.record("testbed.run", root, 0, root, t0)
			if err != nil {
				return err
			}
			jt.hists["apps.step"] = &app.step
			jt.hists["core.decide"] = &gov.decide
			jt.hists["core.observe"] = &gov.observe
			explores[i] = gov.exploring
			ref := rig.ref[i].RunResult
			epi := rec.TrueEnergy / float64(rec.Iterations)
			if ref.App != j.app || ref.Platform != j.plat || ref.Factor != j.factor ||
				ref.EnergyPerIter != epi || ref.MeanAccuracy != rec.MeanAccuracy() {
				return fmt.Errorf("traced cell %s/%s f=%.2f differs from Sweep's", j.app, j.plat, j.factor)
			}
			jt.record("job", root, root, 0, js)
			return nil
		})
		if err != nil {
			r.check(false, "traced sweep: %v", err)
			return tr, perIter, explored
		}
		for i, jt := range tracers {
			tr.merge(jt)
			iters += rig.jobs[i].iters
			explored += explores[i]
		}
		perIter = append(perIter, float64(time.Since(t0))*float64(par.Workers())/float64(iters))
	}
	return tr, perIter, explored
}
