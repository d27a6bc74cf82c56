package load_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"jouleguard/internal/load"
	"jouleguard/internal/server"
)

// TestLoadRun drives a small fleet against an in-process daemon and pins
// the report's accounting: every tenant finishes and no tenant overruns
// its grant beyond the governor's slack.
func TestLoadRun(t *testing.T) {
	srv, err := server.New(server.Config{GlobalBudgetJ: 100000, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := load.Run(context.Background(), load.Config{
		BaseURL:    ts.URL,
		Tenants:    4,
		Iterations: 20,
		Apps:       []string{"radar"},
		Platform:   "Tablet",
		Factor:     2,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 80 {
		t.Fatalf("fleet iterations %d, want 80", rep.Iterations)
	}
	if rep.Errors != 0 {
		for _, tr := range rep.Tenants {
			if tr.Err != nil {
				t.Errorf("tenant %s: %v", tr.Tenant, tr.Err)
			}
		}
		t.FailNow()
	}
	if err := rep.Check(1.05); err != nil {
		t.Fatal(err)
	}
	if rep.TotalSpentJ > 100000 {
		t.Fatalf("fleet overran the global pool: %.1f", rep.TotalSpentJ)
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}
}
