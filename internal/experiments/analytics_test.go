package experiments

import (
	"strings"
	"testing"
)

// TestAnalyticsDeterministicTallies runs the campaign small: the plans
// must produce exact host-verified tallies (Analytics itself errors on any
// CIM/host divergence) and identical counts across repeat runs and
// parallelism settings.
func TestAnalyticsDeterministicTallies(t *testing.T) {
	cfg := AnalyticsConfig{Rows: 10_000, Seed: 42, Parallelism: 1}
	a, err := Analytics(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 {
		t.Fatalf("got %d rows, want 2", len(a))
	}
	cfg.Parallelism = 3
	b, err := Analytics(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Count != b[i].Count || a[i].Sum != b[i].Sum {
			t.Errorf("row %d: tallies differ across parallelism: %d/%d vs %d/%d",
				i, a[i].Count, a[i].Sum, b[i].Count, b[i].Sum)
		}
		if a[i].Count <= 0 || a[i].Count >= int64(cfg.Rows) {
			t.Errorf("row %d: degenerate selectivity %d/%d", i, a[i].Count, cfg.Rows)
		}
	}
	if a[1].Sum == 0 {
		t.Error("filter+SUM plan produced a zero sum")
	}

	out := RenderAnalytics(a)
	if out != RenderAnalytics(b) {
		t.Error("deterministic render differs across parallelism")
	}
	for _, want := range []string{"bitmap-index COUNT", "filter+SUM", "10000 rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyticsRejectsBadConfig(t *testing.T) {
	if _, err := Analytics(AnalyticsConfig{Rows: 0}); err == nil {
		t.Error("zero rows should fail")
	}
}
