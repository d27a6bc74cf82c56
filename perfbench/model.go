package main

import (
	"fmt"
	"math/rand"
	"time"

	"jouleguard"
)

// inputWindow is how many distinct inputs each application model is
// tabulated over. The measured loop replays input i mod inputWindow, so
// the per-iteration cost of the application model is one table lookup
// and never bounds throughput (x264's real kernel costs 1.3 ms a step).
const inputWindow = 16

// appModel is one application on one platform, tabulated at set-up:
// (work, accuracy) per application configuration and input, and rate
// and power per system configuration, all from the program's own
// models. It is read-only once built.
type appModel struct {
	defaultJ  float64   // default-configuration joules per iteration
	work, acc []float64 // index cfg*inputWindow + input
	rate, pow []float64 // per system configuration
}

// models caches tabulated models per (app, platform). It, builtPairs
// and testbedBuild are touched only from the load goroutine.
var models = map[[2]string]*appModel{}

// testbedBuild accumulates the wall time of every first NewTestbed and
// NewOracle call per pair (apps.testbed_build_s).
var testbedBuild time.Duration

// pairTestbed builds (or fetches) the program's testbed and oracle for a
// pair, charging the first construction to testbedBuild.
func pairTestbed(app, plat string) (*jouleguard.Testbed, *jouleguard.Oracle, error) {
	t0 := time.Now()
	tb, err := jouleguard.NewTestbed(app, plat)
	if err != nil {
		return nil, nil, err
	}
	orc, err := tb.NewOracle()
	if err != nil {
		return nil, nil, err
	}
	if _, seen := builtPairs[[2]string{app, plat}]; !seen {
		builtPairs[[2]string{app, plat}] = struct{}{}
		testbedBuild += time.Since(t0)
	}
	return tb, orc, nil
}

var builtPairs = map[[2]string]struct{}{}

// model returns the tabulated model for a pair, building it on first use.
func model(app, plat string) (*appModel, error) {
	key := [2]string{app, plat}
	if m := models[key]; m != nil {
		return m, nil
	}
	tb, _, err := pairTestbed(app, plat)
	if err != nil {
		return nil, err
	}
	n := tb.App.NumConfigs()
	m := &appModel{
		defaultJ: tb.DefaultEnergy,
		work:     make([]float64, n*inputWindow), acc: make([]float64, n*inputWindow),
	}
	for cfg := 0; cfg < n; cfg++ {
		for in := 0; in < inputWindow; in++ {
			m.work[cfg*inputWindow+in], m.acc[cfg*inputWindow+in] = tb.App.Step(cfg, in)
		}
	}
	for sys := 0; sys < tb.Platform.NumConfigs(); sys++ {
		m.rate = append(m.rate, tb.Platform.Rate(sys, tb.Profile))
		m.pow = append(m.pow, tb.Platform.Power(sys, tb.Profile))
	}
	models[key] = m
	return m, nil
}

// tenant is one simulated application instance: it runs each governed
// iteration on the tabulated model and keeps the clock and cumulative
// energy counter its session reports. Owned by the load goroutine.
type tenant struct {
	m      *appModel
	in     int
	clock  float64
	energy float64
}

func newTenant(m *appModel, offset int) *tenant { return &tenant{m: m, in: offset} }

// step runs one iteration at the decided configurations and returns the
// accuracy it delivered.
func (t *tenant) step(appCfg, sysCfg int) float64 {
	k := appCfg*inputWindow + t.in%inputWindow
	t.in++
	dur := t.m.work[k] / t.m.rate[sysCfg]
	t.clock += dur
	t.energy += t.m.pow[sysCfg] * dur
	return t.m.acc[k]
}

func (t *tenant) now() float64                 { return t.clock }
func (t *tenant) readEnergy() (float64, error) { return t.energy, nil }

// sessionPlan is one generated session: everything the program receives
// about it comes from here.
type sessionPlan struct {
	Tenant, Tier  string
	App, Platform string
	Factor        float64
	Iterations    int
	Seed          int64
	Offset        int
}

// longIters is the registered length of the long sessions: far more
// iterations than any run completes, so they never finish mid-run;
// grant_use_max reports their use per iteration (see grantUse). The
// guarantee binds on the short sessions that run beside them.
const longIters = 1 << 24

// servingPlans generates n factor-priced sessions on the Server platform
// over servingApps, round-robin, each registered for iters iterations.
// The seed picks each session's governor seed and input offset.
func servingPlans(seed int64, prefix string, n, iters int) []sessionPlan {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]sessionPlan, n)
	for i := range plans {
		plans[i] = sessionPlan{
			Tenant: fmt.Sprintf("%s-%02d", prefix, i), App: servingApps[i%len(servingApps)], Platform: "Server",
			Factor: servingFactor, Iterations: iters,
			Seed: 1 + rng.Int63n(1<<30), Offset: rng.Intn(inputWindow),
		}
	}
	return plans
}

// grantUse is a session's spend over its grant, prorated to the
// iterations done: the energy per iteration it used over the energy per
// iteration it was granted. For a completed session this is exactly
// spend/grant.
func grantUse(spentJ, grantJ float64, done, iters int) float64 {
	if done <= 0 || grantJ <= 0 {
		return 0
	}
	return spentJ / (grantJ * float64(done) / float64(iters))
}
