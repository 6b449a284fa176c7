package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Comparing two sets of runs, one row per (workload, metric), by the rules
// the bounds in BENCHMARK.json are meant for: a metric is worse when its
// median moved the wrong way by more than its bound, better when the
// candidate won nine tenths of the run pairs by more than the base's own
// quartile spread, and unresolved when the runs spread wider than the bound
// — unless every candidate run beats (or loses to) every base run.

// verdict is one comparison's outcome.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWorse      verdict = "worse"
	verdictWithin     verdict = "within bound"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one (workload, metric) row.
type comparison struct {
	BaseQ, CandQ [3]float64 // quartiles: q1, median, q3
	Won          float64    // share of index-paired runs the candidate won
	Change       float64    // (cand median - base median) / base median
	Verdict      verdict
}

// compareMetric judges one metric. higher says whether larger is better;
// bound is the allowed relative worsening.
func compareMetric(base, cand []float64, higher bool, bound float64) comparison {
	var c comparison
	q := func(xs []float64) [3]float64 {
		ys := append([]float64(nil), xs...)
		if len(ys) < 2 {
			return [3]float64{ys[0], ys[0], ys[0]}
		}
		q1, q2, q3 := quartiles(ys)
		return [3]float64{q1, q2, q3}
	}
	c.BaseQ, c.CandQ = q(base), q(cand)
	better := func(a, b float64) bool { // a better than b
		if higher {
			return a > b
		}
		return a < b
	}
	pairs, won := min(len(base), len(cand)), 0
	for i := 0; i < pairs; i++ {
		if better(cand[i], base[i]) {
			won++
		}
	}
	c.Won = float64(won) / float64(pairs)
	bm, cm := c.BaseQ[1], c.CandQ[1]
	c.Change = (cm - bm) / bm
	worsening := c.Change
	if higher {
		worsening = -c.Change
	}
	spread := max((c.BaseQ[2]-c.BaseQ[0])/bm, (c.CandQ[2]-c.CandQ[0])/cm)
	all := func(f func(a, b float64) bool) bool {
		for _, x := range cand {
			for _, y := range base {
				if !f(x, y) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case spread > bound && all(better):
		c.Verdict = verdictBetter
	case spread > bound && all(func(a, b float64) bool { return better(b, a) }):
		c.Verdict = verdictWorse
	case spread > bound:
		c.Verdict = verdictUnresolved
	case worsening > bound:
		c.Verdict = verdictWorse
	case c.Won >= 0.9 && better(cm, bm) && abs(cm-bm) > c.BaseQ[2]-c.BaseQ[0]:
		c.Verdict = verdictBetter
	default:
		c.Verdict = verdictWithin
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// loadRuns reads -json files (one result or a list of them).
func loadRuns(paths []string) ([]*result, error) {
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("reading runs: %w", err)
		}
		var list []*result
		if err := json.Unmarshal(data, &list); err != nil {
			var one result
			if err2 := json.Unmarshal(data, &one); err2 != nil {
				return nil, fmt.Errorf("parsing %s: %w", p, err)
			}
			list = []*result{&one}
		}
		out = append(out, list...)
	}
	return out, nil
}

// byWorkload collects each workload's values of metric, in file order.
func byWorkload(runs []*result, metric string) (map[string][]float64, []string) {
	vals := map[string][]float64{}
	var order []string
	for _, r := range runs {
		m, ok := r.Metrics[metric]
		if !ok || r.Traced {
			continue
		}
		if _, seen := vals[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		vals[r.Workload] = append(vals[r.Workload], m.Value)
	}
	return vals, order
}

func runCompare(s *spec, args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: bench -compare base.json... -- candidate.json...")
		return 2
	}
	base, err := loadRuns(args[:split])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cand, err := loadRuns(args[split+1:])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-11s %-20s %4s %12s %12s %12s %12s %12s %12s %6s %8s %7s  %s\n",
		"workload", "metric", "runs", "base_q1", "base_med", "base_q3", "cand_q1", "cand_med", "cand_q3",
		"won", "change", "bound", "verdict")
	status := 0
	for _, m := range s.EndToEnd {
		bound := 0.0
		if m.Bound != nil {
			bound = *m.Bound
		}
		bv, order := byWorkload(base, m.Name)
		cv, _ := byWorkload(cand, m.Name)
		for _, w := range order {
			if len(cv[w]) == 0 {
				continue
			}
			c := compareMetric(bv[w], cv[w], m.Better == "higher", bound)
			fmt.Fprintf(stdout, "%-11s %-20s %4d %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %6.2f %+7.2f%% %6.3g%%  %s\n",
				w, m.Name, min(len(bv[w]), len(cv[w])), c.BaseQ[0], c.BaseQ[1], c.BaseQ[2],
				c.CandQ[0], c.CandQ[1], c.CandQ[2], c.Won, 100*c.Change, 100*bound, c.Verdict)
			if c.Verdict == verdictWorse || c.Verdict == verdictUnresolved {
				status = 1
			}
		}
	}
	return status
}
