package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"jouleguard"
	"jouleguard/internal/apps"
	"jouleguard/internal/server"
	"jouleguard/internal/sim"
	"jouleguard/internal/wire"
)

// served is one decision the program handed an application during the
// traced phase, keyed by the iteration it armed.
type served struct {
	iter     int
	app, sys int
}

// wireSample is one iteration's request and response values, kept so
// the codecs can be replayed on exactly what the run carried.
type wireSample struct {
	done     wire.DoneRequest
	next     wire.NextRequest
	doneResp wire.DoneResponse
	nextResp wire.NextResponse
}

// wireSampleCap bounds the wire values kept per phase.
const wireSampleCap = 20000

// timedGov decorates the JouleGuard runtime handed to NewOnlineGuarded
// or Testbed.Run, timing Decide and Observe while on is set and counting
// the decisions the runtime took while exploring.
type timedGov struct {
	gov       *jouleguard.Runtime
	on        bool
	decide    hist
	observe   hist
	exploring int
}

func (g *timedGov) Decide(iter int) (int, int) {
	if !g.on {
		a, s := g.gov.Decide(iter)
		g.noteExplore()
		return a, s
	}
	t0 := time.Now()
	a, s := g.gov.Decide(iter)
	g.decide.addDur(time.Since(t0))
	g.noteExplore()
	return a, s
}

func (g *timedGov) noteExplore() {
	if g.gov.Exploring() {
		g.exploring++
	}
}

func (g *timedGov) Observe(fb sim.Feedback) {
	if !g.on {
		g.gov.Observe(fb)
		return
	}
	t0 := time.Now()
	g.gov.Observe(fb)
	g.observe.addDur(time.Since(t0))
}

// timedApp decorates an App, timing Step.
type timedApp struct {
	apps.App
	step hist
}

func (a *timedApp) Step(cfg, iter int) (float64, float64) {
	t0 := time.Now()
	w, acc := a.App.Step(cfg, iter)
	a.step.addDur(time.Since(t0))
	return w, acc
}

// replayStats accumulates the governor replay across sessions.
type replayStats struct {
	next, done, decide, observe hist
	iters, exploring            int
	guardRejected, guardTotal   int
	checked                     int
}

// replaySession rebuilds a session's governor exactly as the daemon's
// newSession does (NewTestbed, NewJouleGuardBudget, NewOnlineGuarded)
// and drives it with the session's recorded inputs from the daemon's own
// iteration log. Every decision the run served for this session must be
// reproduced exactly.
//
// At most one served decision may fall past the log: the iteration a
// session had armed but not settled when it closed.
//
// Timing alternates between iterations: even ones time the
// OnlineController's Next and Done, odd ones time the Governor inside
// them, so neither figure carries the other's clock reads.
func replaySession(exp server.SessionExport, want []served, st *replayStats) error {
	tb, err := jouleguard.NewTestbed(exp.Reg.App, exp.Reg.Platform)
	if err != nil {
		return err
	}
	gov, err := tb.NewJouleGuardBudget(exp.GrantJ, exp.Reg.Iterations, jouleguard.Options{Seed: exp.Reg.Seed})
	if err != nil {
		return err
	}
	tg := &timedGov{gov: gov}
	var pending struct {
		now, energy float64
		eerr        bool
	}
	readEnergy := func() (float64, error) {
		if pending.eerr {
			return 0, fmt.Errorf("recorded meter failure")
		}
		return pending.energy, nil
	}
	ctl, err := jouleguard.NewOnlineGuarded(tg, readEnergy, func() float64 { return pending.now },
		jouleguard.SensorGuardConfig{ModelPower: tb.DefaultPower})
	if err != nil {
		return err
	}
	wi := 0
	for i, rec := range exp.NewIters {
		outer := i%2 == 0
		tg.on = !outer
		pending.now, pending.eerr = rec.NextNow, false
		t0 := time.Now()
		app, sys := ctl.Next()
		t1 := time.Now()
		for wi < len(want) && want[wi].iter < i {
			wi++
		}
		if wi < len(want) && want[wi].iter == i {
			if want[wi].app != app || want[wi].sys != sys {
				return fmt.Errorf("session %s iteration %d: served (%d,%d), replay decided (%d,%d)",
					exp.ID, i, want[wi].app, want[wi].sys, app, sys)
			}
			st.checked++
			wi++
		}
		pending.now, pending.energy, pending.eerr = rec.DoneNow, rec.EnergyJ, rec.EnergyErr
		t2 := time.Now()
		if err := ctl.Done(rec.Accuracy); err != nil {
			return fmt.Errorf("session %s iteration %d: %w", exp.ID, i, err)
		}
		t3 := time.Now()
		if outer {
			st.next.addDur(t1.Sub(t0))
			st.done.addDur(t3.Sub(t2))
		}
		st.iters++
	}
	if past := len(want) - wi; past > 1 {
		return fmt.Errorf("session %s: %d decisions served past the daemon's %d-iteration log",
			exp.ID, past, len(exp.NewIters))
	}
	st.decide.merge(&tg.decide)
	st.observe.merge(&tg.observe)
	st.exploring += tg.exploring
	acc, rej := ctl.GuardCounts()
	st.guardRejected += rej
	st.guardTotal += acc + rej
	return nil
}

// exportOne copies one session's full state from a daemon without
// copying every other session's log too.
func exportOne(srv *server.Server, id string, others []string) (server.SessionExport, bool) {
	from := make(map[string]int, len(others))
	for _, o := range others {
		if o != id {
			from[o] = 1 << 62
		}
	}
	for _, e := range srv.Export(from) {
		if e.ID == id {
			return e, true
		}
	}
	return server.SessionExport{}, false
}

// codecReplay replays recorded wire values through the v2 frame codec
// (a DoneNext request and its response, encoded and decoded) and through
// JSON on the v1 wire types, and returns nanoseconds per iteration for
// each. Decoded values must equal what was encoded.
func codecReplay(samples []wireSample) (frameNs, jsonNs float64, err error) {
	if len(samples) == 0 {
		return 0, 0, nil
	}
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	dec := wire.NewDecoder(&buf)
	var n int
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond || n < len(samples) {
		s := &samples[n%len(samples)]
		n++
		if err := enc.DoneNext(1, &s.done, &s.next); err != nil {
			return 0, 0, err
		}
		if err := enc.Flush(); err != nil {
			return 0, 0, err
		}
		h, p, err := dec.ReadFrame()
		if err != nil {
			return 0, 0, err
		}
		d, nx, err := wire.ParseDoneNext(h, p)
		if err != nil {
			return 0, 0, err
		}
		if d.Accuracy != s.done.Accuracy || d.EnergyJ != s.done.EnergyJ || nx.NowS != s.next.NowS {
			return 0, 0, fmt.Errorf("frame codec round trip changed a DoneNext request")
		}
		if err := enc.DoneNextResp(1, s.doneResp, s.nextResp); err != nil {
			return 0, 0, err
		}
		if err := enc.Flush(); err != nil {
			return 0, 0, err
		}
		if h, p, err = dec.ReadFrame(); err != nil {
			return 0, 0, err
		}
		dr, nr, err := wire.ParseDoneNextResp(h, p)
		if err != nil {
			return 0, 0, err
		}
		if nr != s.nextResp || dr.IterationsDone != s.doneResp.IterationsDone {
			return 0, 0, fmt.Errorf("frame codec round trip changed a DoneNext response")
		}
	}
	frameNs = float64(time.Since(t0)) / float64(n)

	n = 0
	t0 = time.Now()
	for time.Since(t0) < 50*time.Millisecond || n < len(samples) {
		s := &samples[n%len(samples)]
		n++
		var nreq wire.NextRequest
		var nresp wire.NextResponse
		var dreq wire.DoneRequest
		var dresp wire.DoneResponse
		for _, rt := range []struct{ in, out any }{
			{&s.next, &nreq}, {&s.nextResp, &nresp}, {&s.done, &dreq}, {&s.doneResp, &dresp},
		} {
			b, err := json.Marshal(rt.in)
			if err != nil {
				return 0, 0, err
			}
			if err := json.Unmarshal(b, rt.out); err != nil {
				return 0, 0, err
			}
		}
		if nresp != s.nextResp || dreq.Accuracy != s.done.Accuracy {
			return 0, 0, fmt.Errorf("JSON round trip changed a v1 value")
		}
	}
	jsonNs = float64(time.Since(t0)) / float64(n)
	return frameNs, jsonNs, nil
}
