package experiments

import (
	"fmt"
	"strings"

	"sherlock/internal/arraymodel"
	"sherlock/internal/coopt"
	"sherlock/internal/device"
	"sherlock/internal/dfg"
	"sherlock/internal/layout"
	"sherlock/internal/mapping"
)

// ResynthVariant selects how much of the co-optimization portfolio a
// Resynth ablation row may use.
type ResynthVariant int

const (
	// ResynthOff is the plain Algorithm 2 baseline (no resynthesis).
	ResynthOff ResynthVariant = iota
	// ResynthBalance restricts the portfolio to round-trip + balance.
	ResynthBalance
	// ResynthFull runs the complete pass portfolio.
	ResynthFull
)

func (v ResynthVariant) String() string {
	switch v {
	case ResynthOff:
		return "baseline"
	case ResynthBalance:
		return "balance"
	case ResynthFull:
		return "full"
	default:
		return fmt.Sprintf("ResynthVariant(%d)", int(v))
	}
}

// ResynthRow is one ablation cell: a workload compiled by Algorithm 2 with
// a given slice of the resynthesis portfolio.
type ResynthRow struct {
	Workload Workload
	Variant  ResynthVariant

	LatencyUS    float64
	EnergyUJ     float64
	Instructions int
	AndsBefore   int // lifted AIG size (0 for the baseline row)
	AndsAfter    int
	Evaluations  int
	// Proved candidates were statically proven equivalent to the kernel;
	// FuzzBackstops exhausted the proof budget and were admitted by the
	// random-vector equivalence fuzz instead.
	Proved        int
	FuzzBackstops int
	Improved      bool
	Speedup       float64 // baseline latency / this latency
}

// ResynthWorkloads are the kernels the co-optimization ablation sweeps:
// the paper's latency-critical image kernel and its crypto kernel.
func ResynthWorkloads() []Workload { return []Workload{Sobel, AES} }

// Resynth runs the synthesis↔scheduling ablation on one technology and
// array size: for each workload, Algorithm 2 alone, then co-optimization
// with the balance-only portfolio, then with the full portfolio. Rows for
// one workload share the baseline, so speedups are directly comparable.
func Resynth(r *Runner, tech device.Technology, arraySize int) ([]ResynthRow, error) {
	model := arraymodel.New(arraymodel.DefaultConfig(tech, arraySize))
	params := device.ParamsFor(tech)
	workloads := ResynthWorkloads()
	variants := []ResynthVariant{ResynthOff, ResynthBalance, ResynthFull}

	rows := make([]ResynthRow, 0, len(workloads)*len(variants))
	for _, w := range workloads {
		g, err := r.Graph(w, 0, false)
		if err != nil {
			return nil, err
		}
		evaluate := func(g *dfg.Graph) (*mapping.Result, error) {
			return mapping.Optimized(g, mapping.Options{
				Target: layout.Target{
					Arrays: r.setup.Arrays,
					Rows:   arraySize,
					Cols:   arraySize,
				},
			})
		}
		var baseLatency float64
		for _, v := range variants {
			var res *mapping.Result
			var stats coopt.Stats
			if v == ResynthOff {
				if res, err = evaluate(g); err != nil {
					return nil, err
				}
			} else {
				portfolio := coopt.DefaultPortfolio()
				if v == ResynthBalance {
					portfolio = coopt.PortfolioBalance()
				}
				opt, err := coopt.Optimize(g, coopt.Config{
					MaxRows:   params.MaxRows,
					Workers:   r.Workers(),
					Portfolio: portfolio,
					Evaluate:  evaluate,
					Score: func(m *mapping.Result) (coopt.Score, error) {
						return coopt.ScoreMapped(m, model, params)
					},
				})
				if err != nil {
					return nil, err
				}
				res, stats = opt.Mapped, opt.Stats
			}
			cost, err := Cost(res, tech, arraySize)
			if err != nil {
				return nil, err
			}
			row := ResynthRow{
				Workload:      w,
				Variant:       v,
				LatencyUS:     cost.LatencyUS(),
				EnergyUJ:      cost.EnergyUJ(),
				Instructions:  res.Stats.Instructions,
				AndsBefore:    stats.AndsBefore,
				AndsAfter:     stats.AndsAfter,
				Evaluations:   stats.Evaluations,
				Proved:        stats.Proved,
				FuzzBackstops: stats.FuzzBackstops,
				Improved:      stats.Improved,
			}
			if v == ResynthOff {
				baseLatency = row.LatencyUS
			}
			if row.LatencyUS > 0 {
				row.Speedup = baseLatency / row.LatencyUS
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderResynth prints the ablation table.
func RenderResynth(rows []ResynthRow) string {
	var sb strings.Builder
	sb.WriteString("Resynthesis ablation: Algorithm 2 alone vs synthesis<->scheduling co-optimization\n")
	sb.WriteString(fmt.Sprintf("%-10s %-9s %12s %11s %7s %7s %7s %7s %8s %9s\n",
		"workload", "variant", "latency_us", "energy_uJ", "instrs", "ANDs", "evals", "proved", "backstop", "speedup"))
	for _, r := range rows {
		ands := "-"
		if r.Variant != ResynthOff {
			ands = fmt.Sprintf("%d", r.AndsAfter)
		}
		sb.WriteString(fmt.Sprintf("%-10v %-9v %12.2f %11.3f %7d %7s %7d %7d %8d %8.3fx\n",
			r.Workload, r.Variant, r.LatencyUS, r.EnergyUJ, r.Instructions,
			ands, r.Evaluations, r.Proved, r.FuzzBackstops, r.Speedup))
	}
	return sb.String()
}
