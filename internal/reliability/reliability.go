// Package reliability computes application-level failure probabilities from
// generated programs (Sec. 4.2):
//
//	P_app = 1 - prod_i (1 - P_DFi)
//
// where P_DFi is the decision-failure probability of the i-th column-level
// sense decision. Decisions are grouped by (operation, activated-row-count)
// class so that programs with millions of sense events evaluate in O(unique
// classes), and each class's P_DF overlap integral is memoized inside
// internal/device (keyed by parameter set, op and row count), so repeated
// assessments of the same technology — the campaign engine assesses every
// sweep point, and the fault-injecting simulator asks per instruction —
// cost a lookup instead of an integral.
package reliability

import (
	"fmt"

	"sherlock/internal/device"
	"sherlock/internal/isa"
	"sherlock/internal/stats"
)

// ClassReport details one (op, rows) sense class within a program.
type ClassReport struct {
	Class isa.SenseClass
	Count int
	PDF   float64 // per-decision failure probability
}

// Report is the reliability assessment of a program on a technology.
type Report struct {
	Tech device.Technology
	// PApp is the probability of at least one decision failure over the
	// whole program.
	PApp float64
	// SenseDecisions is the total number of column-level sense events.
	SenseDecisions int
	// WorstClass is the class with the highest per-decision P_DF (zero
	// value if the program has no sense events).
	WorstClass ClassReport
	Classes    []ClassReport
}

// Assess computes the report for a program under the given device
// parameters. Programs whose multi-row activations exceed the technology's
// limit are rejected.
func Assess(p isa.Program, params device.Params) (Report, error) {
	st := p.ComputeStats()
	if st.MaxRows > params.MaxRows {
		return Report{}, fmt.Errorf("reliability: program activates %d rows, %v supports %d",
			st.MaxRows, params.Tech, params.MaxRows)
	}
	rep := Report{Tech: params.Tech}
	var ps []float64
	var counts []int
	for _, class := range st.SenseClasses() {
		n := st.SenseEvents[class]
		pdf := params.DecisionFailure(class.Op, class.Rows)
		cr := ClassReport{Class: class, Count: n, PDF: pdf}
		rep.Classes = append(rep.Classes, cr)
		rep.SenseDecisions += n
		if pdf > rep.WorstClass.PDF {
			rep.WorstClass = cr
		}
		ps = append(ps, pdf)
		counts = append(counts, n)
	}
	rep.PApp = stats.ProbAtLeastOneWeighted(ps, counts)
	return rep, nil
}

// Point is one (latency-proxy, reliability) sample of a Fig. 6-style sweep.
type Point struct {
	// AllowedFraction is the fraction of node-substitution opportunities
	// permitted (the sweep knob).
	AllowedFraction float64
	// AchievedMRAPercent is the resulting share of sense ops with more
	// than two operands (the percentage printed on the paper's data
	// points).
	AchievedMRAPercent float64
	LatencyNS          float64
	EnergyPJ           float64
	PApp               float64
	Instructions       int
}
