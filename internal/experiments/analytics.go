package experiments

import (
	"fmt"
	"strings"

	"sherlock"
	"sherlock/internal/workloads/analytics"
)

// AnalyticsConfig sizes the million-row analytics campaign: the streaming
// pipeline's two fused reductions run end to end and checked against the
// exact host models.
type AnalyticsConfig struct {
	// Rows is the table size (row = lane).
	Rows int
	// Seed drives the deterministic packed data generators.
	Seed int64
	// Parallelism is the streaming shard count (0 = all cores).
	Parallelism int
}

// DefaultAnalyticsConfig is the million-row campaign.
func DefaultAnalyticsConfig() AnalyticsConfig {
	return AnalyticsConfig{Rows: 1_000_000, Seed: 42}
}

// AnalyticsRow is one plan's tallies, deterministic in the config.
type AnalyticsRow struct {
	Plan string
	Rows int

	Count int64
	Sum   uint64 // 0 for pure COUNT plans
}

// Analytics runs the data-analytics campaign: a bitmap-index COUNT plan
// and a bit-serial filter+SUM scan over cfg.Rows rows, each streamed
// through a Streamer into its fused reduction sink and checked against
// the exact host golden model. Throughput is measured elsewhere (the
// bench's stream workload and BenchmarkRunStream), so nothing here reads
// a clock.
func Analytics(cfg AnalyticsConfig) ([]AnalyticsRow, error) {
	if cfg.Rows < 1 {
		return nil, fmt.Errorf("analytics: %d rows", cfg.Rows)
	}
	scan, err := analyticsScan(cfg)
	if err != nil {
		return nil, fmt.Errorf("bitmap scan: %w", err)
	}
	fsum, err := analyticsFilterSum(cfg)
	if err != nil {
		return nil, fmt.Errorf("filter+sum: %w", err)
	}
	return []AnalyticsRow{scan, fsum}, nil
}

func analyticsScan(cfg AnalyticsConfig) (AnalyticsRow, error) {
	plan := analytics.DefaultScanConfig()
	g, err := analytics.BuildScan(plan)
	if err != nil {
		return AnalyticsRow{}, err
	}
	c, err := sherlock.CompileGraph(g, sherlock.Options{Tech: sherlock.ReRAM, ArraySize: 128})
	if err != nil {
		return AnalyticsRow{}, err
	}
	names := c.InputNames()
	in, err := analytics.PackedData(names, "col", cfg.Rows, cfg.Seed)
	if err != nil {
		return AnalyticsRow{}, err
	}
	want, err := analytics.HostCount(plan, names, in, cfg.Rows)
	if err != nil {
		return AnalyticsRow{}, err
	}

	s, err := c.NewStreamer(sherlock.StreamOptions{Parallelism: cfg.Parallelism})
	if err != nil {
		return AnalyticsRow{}, err
	}
	defer s.Close()
	var sink sherlock.CountSink
	if err := s.Run(in, cfg.Rows, &sink); err != nil {
		return AnalyticsRow{}, err
	}
	if sink.Counts[0] != want {
		return AnalyticsRow{}, fmt.Errorf("streamed count %d != host %d", sink.Counts[0], want)
	}
	return AnalyticsRow{Plan: "bitmap-index COUNT", Rows: cfg.Rows, Count: want}, nil
}

func analyticsFilterSum(cfg AnalyticsConfig) (AnalyticsRow, error) {
	plan := analytics.DefaultFilterSumConfig()
	g, err := analytics.BuildFilterSum(plan)
	if err != nil {
		return AnalyticsRow{}, err
	}
	c, err := sherlock.CompileGraph(g, sherlock.Options{Tech: sherlock.ReRAM, ArraySize: 128})
	if err != nil {
		return AnalyticsRow{}, err
	}
	names := c.InputNames()
	planes, match, err := analytics.SumPlanes(c.OutputNames(), plan.ValueBits)
	if err != nil {
		return AnalyticsRow{}, err
	}
	in, err := analytics.PackedData(names, analytics.ValuePrefix, cfg.Rows, cfg.Seed+1)
	if err != nil {
		return AnalyticsRow{}, err
	}
	wantCount, wantSum, err := analytics.HostFilterSum(plan, names, in, cfg.Rows)
	if err != nil {
		return AnalyticsRow{}, err
	}

	s, err := c.NewStreamer(sherlock.StreamOptions{Parallelism: cfg.Parallelism})
	if err != nil {
		return AnalyticsRow{}, err
	}
	defer s.Close()
	var count sherlock.CountSink
	if err := s.Run(in, cfg.Rows, &count); err != nil {
		return AnalyticsRow{}, err
	}
	sum := sherlock.SumBitsSink{Planes: planes}
	if err := s.Run(in, cfg.Rows, &sum); err != nil {
		return AnalyticsRow{}, err
	}
	if count.Counts[match] != wantCount || sum.Sum != wantSum {
		return AnalyticsRow{}, fmt.Errorf("streamed count/sum %d/%d != host %d/%d",
			count.Counts[match], sum.Sum, wantCount, wantSum)
	}
	return AnalyticsRow{Plan: "filter+SUM (bit-serial)", Rows: cfg.Rows, Count: wantCount, Sum: wantSum}, nil
}

// RenderAnalytics prints the tally table — byte-identical across runs and
// parallelism settings.
func RenderAnalytics(rows []AnalyticsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Analytics: streamed plans over %d rows\n", rowsOf(rows))
	fmt.Fprintf(&b, "%-26s %12s %16s\n", "plan", "COUNT", "SUM")
	for _, r := range rows {
		sum := "-"
		if r.Sum != 0 {
			sum = fmt.Sprintf("%d", r.Sum)
		}
		fmt.Fprintf(&b, "%-26s %12d %16s\n", r.Plan, r.Count, sum)
	}
	return b.String()
}

func rowsOf(rows []AnalyticsRow) int {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Rows
}
