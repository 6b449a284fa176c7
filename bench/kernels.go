package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sherlock"
	"sherlock/internal/arraymodel"
	"sherlock/internal/device"
	"sherlock/internal/dfg"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/mapping"
	"sherlock/internal/reliability"
	"sherlock/internal/sim"
	"sherlock/internal/verify"
)

// benchOptions is the one compile configuration of every workload: Alg. 2
// on four 512x512 STT-MRAM arrays, with the static verifier and the
// translation validator on, as a deployment that must trust its programs
// would compile.
func benchOptions() sherlock.Options {
	return sherlock.Options{
		Tech:              sherlock.STTMRAM,
		ArraySize:         512,
		Arrays:            4,
		Mapper:            sherlock.MapperOptimized,
		VerifyEmitted:     true,
		VerifyEquivalence: true,
	}
}

// quality is the modelled hardware cost of a workload's program set: the
// sim metrics. They are deterministic model outputs, not measurements, and
// serve as exact regression guards.
type quality struct {
	instructions int
	latencyUS    []float64
	energyNJ     []float64
	faults       []float64 // expected decision failures per execution
}

// expectedFaults is Σ count·P_DF over the program's sense classes: how many
// decision failures one execution expects. Unlike P_app it does not
// saturate at 1 for large kernels.
func expectedFaults(rel reliability.Report) float64 {
	f := 0.0
	for _, c := range rel.Classes {
		f += float64(c.Count) * c.PDF
	}
	return f
}

func (q *quality) add(p isa.Program, cost sim.Cost, rel reliability.Report) {
	q.instructions += len(p)
	q.latencyUS = append(q.latencyUS, cost.LatencyUS())
	q.energyNJ = append(q.energyNJ, cost.EnergyPJ/1e3)
	q.faults = append(q.faults, expectedFaults(rel))
}

// addCompiled adds a facade-compiled program.
func (q *quality) addCompiled(c *sherlock.Compiled) error {
	cost, err := c.Cost()
	if err != nil {
		return err
	}
	rel, err := c.Reliability()
	if err != nil {
		return err
	}
	q.add(c.Program, cost, rel)
	return nil
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func (q *quality) set(r *result) {
	r.set("instructions", "count", float64(q.instructions))
	r.set("sim_energy_nj", "nJ", geomean(q.energyNJ))
	r.set("expected_faults", "count", geomean(q.faults))
	r.set("sim_latency_us", "us", geomean(q.latencyUS))
}

func (q *quality) equal(o *quality) bool {
	if q.instructions != o.instructions || len(q.energyNJ) != len(o.energyNJ) {
		return false
	}
	for i := range q.energyNJ {
		if q.latencyUS[i] != o.latencyUS[i] || q.energyNJ[i] != o.energyNJ[i] || q.faults[i] != o.faults[i] {
			return false
		}
	}
	return true
}

// checkQuality records an invariant failure when a later compile of the
// same program set models differently from the first.
func checkQuality(r *result, first, q *quality) {
	if !first.equal(q) {
		r.invariant(fmt.Errorf("sim metrics changed between compiles of the same programs"))
	}
}

// The compile layers in the order CompileGraph, Cost and Reliability call
// them. The traced run calls each one itself to time it.
const (
	stBuild = iota
	stMap
	stVerify
	stEquiv
	stPredecode
	stMeasure
	stAssess
	numStages
)

var stageNames = [numStages]string{
	"dfg.build", "mapping.map", "verify.program", "verify.equiv",
	"sim.predecode", "sim.measure", "reliability.assess",
}

// stageCosts is what each compile layer call of one program cost.
type stageCosts struct {
	times  [numStages]time.Duration
	allocs [numStages]uint64
}

// staged is one program compiled layer by layer.
type staged struct {
	stageCosts
	name     string
	source   *dfg.Graph
	res      *mapping.Result
	target   layout.Target
	exec     *sim.Exec
	outs     []verify.OutputAt
	cost     sim.Cost
	rel      reliability.Report
	findings int
	strash   int
}

// costsOf keeps only the stage costs of a program set, so repeated
// compiles do not keep every compiled program alive.
func costsOf(set []*staged) []stageCosts {
	out := make([]stageCosts, len(set))
	for i, s := range set {
		out[i] = s.stageCosts
	}
	return out
}

// compileStaged runs the facade's compile pipeline one layer call at a
// time, in CompileGraph's order — front end, Alg. 2 mapping, static
// verification, translation validation, then the executor's predecode and
// the cost and reliability models — timing each call and recording it as
// a span under parent. front builds the kernel DFG (dfg.Builder or
// cparser). Heap allocation per stage is exact only when nothing else
// allocates concurrently, which holds wherever the benchmark calls this.
func compileStaged(tr *tracer, op int64, parent spanRef, name string, front func() (*dfg.Graph, error)) (*staged, error) {
	opts := benchOptions()
	params := device.ParamsFor(opts.Tech)
	s := &staged{name: name}
	stage := func(i int, f func() error) error {
		sp := tr.begin(stageNames[i], name, op, parent)
		a0 := heapAllocs()
		t0 := time.Now()
		err := f()
		s.times[i] = time.Since(t0)
		s.allocs[i] = heapAllocs() - a0
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %s: %w", name, stageNames[i], err)
		}
		return nil
	}
	err := stage(stBuild, func() (err error) {
		s.source, err = front()
		return err
	})
	if err != nil {
		return nil, err
	}
	err = stage(stMap, func() (err error) {
		s.res, err = mapping.Optimized(s.source, mapping.Options{
			Target: layout.Target{Arrays: opts.Arrays, Rows: opts.ArraySize, Cols: opts.ArraySize},
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	s.target = s.res.Layout.Target()
	for _, out := range s.res.Graph.Outputs() {
		p, err := s.res.OutputPlace(out)
		if err != nil {
			return nil, err
		}
		s.outs = append(s.outs, verify.OutputAt{Name: s.res.Graph.OutputName(out), Place: p})
	}
	err = stage(stVerify, func() error {
		rep := verify.ProgramOpts(s.res.Program, s.target, verify.Options{MaxRows: params.MaxRows})
		s.findings = len(rep.Findings)
		if s.findings != 0 {
			return fmt.Errorf("%d findings, first: %v", s.findings, rep.Findings[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = stage(stEquiv, func() error {
		rep, err := verify.EquivalentOpts(s.res.Program, s.target, s.source, s.outs, verify.EquivOptions{})
		if err != nil {
			return err
		}
		for _, o := range rep.Outputs {
			if o.Method == "strash" {
				s.strash++
			}
		}
		return rep.Err()
	})
	if err != nil {
		return nil, err
	}
	err = stage(stPredecode, func() (err error) {
		s.exec, err = sim.Predecode(s.res.Program, s.target)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = stage(stMeasure, func() (err error) {
		s.cost, err = sim.Measure(s.res.Program, arraymodel.New(arraymodel.DefaultConfig(opts.Tech, opts.ArraySize)))
		return err
	})
	if err != nil {
		return nil, err
	}
	err = stage(stAssess, func() (err error) {
		s.rel, err = reliability.Assess(s.res.Program, params)
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// run executes the staged program on one input assignment, as
// Compiled.Run does, and reads the outputs back by name.
func (s *staged) run(inputs map[string]bool) (map[string]bool, error) {
	m := s.exec.NewMachine(1)
	m.Reset(1)
	words := make(map[string]uint64, len(inputs))
	for name, v := range inputs {
		if v {
			words[name] = 1
		} else {
			words[name] = 0
		}
	}
	if err := m.RunMap(words); err != nil {
		return nil, err
	}
	outs := make(map[string]bool, len(s.outs))
	for _, o := range s.outs {
		w, err := m.ReadOutWord(o.Place, 0)
		if err != nil {
			return nil, err
		}
		outs[o.Name] = w&1 == 1
	}
	return outs, nil
}

// passProbe times one 256-lane executor pass of ex — the unit of work the
// serving tier's coalescer schedules — as the median of reps passes over
// random inputs.
func passProbe(tr *tracer, op int64, name string, ex *sim.Exec, rng *rand.Rand, reps int) (time.Duration, error) {
	m := ex.NewMachine(sim.DefaultBlockWords)
	return execProbe(tr, op, "sim.pass", name, m, rng, reps)
}

// execProbe times reps full-width runs of machine m.
func execProbe(tr *tracer, op int64, span, name string, m *sim.ExecMachine, rng *rand.Rand, reps int) (time.Duration, error) {
	m.Reset(m.MaxLanes())
	in := m.InputBlock()
	for i := range in {
		in[i] = rng.Uint64()
	}
	ds := make([]float64, reps)
	for i := range ds {
		sp := tr.begin(span, name, op, spanRef{})
		t0 := time.Now()
		err := m.Run(in)
		ds[i] = float64(time.Since(t0))
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: executor pass: %w", name, err)
		}
	}
	return time.Duration(median(ds)), nil
}

// stagedSet aggregates repeated staged compiles of one program set into
// the per-layer metrics every workload reports: each stage's time (and
// the mapper's and prover's allocation) as the median over repetitions,
// summed over the set's programs; the program counts from last, the final
// repetition's programs, and the executor pass as the median of passes.
func stagedSet(r *result, reps [][]stageCosts, last []*staged, passes map[string][]float64) {
	var times [numStages]float64
	var mapAlloc, equivAlloc float64
	for p := range last {
		per := make([][]float64, numStages)
		var ma, ea []float64
		for _, rep := range reps {
			for i := range per {
				per[i] = append(per[i], ms(rep[p].times[i]))
			}
			ma = append(ma, float64(rep[p].allocs[stMap])/(1<<20))
			ea = append(ea, float64(rep[p].allocs[stEquiv])/(1<<20))
		}
		for i := range times {
			m := median(per[i])
			times[i] += m
			r.set(stageNames[i]+"_ms."+last[p].name, "ms", m)
		}
		mapAlloc += median(ma)
		equivAlloc += median(ea)
	}
	for i, name := range stageNames {
		r.set(name+"_ms", "ms", times[i])
	}
	r.set("mapping.alloc_mb", "MB", mapAlloc)
	r.set("verify.equiv_alloc_mb", "MB", equivAlloc)

	var merged, copies, clusters, microOps, findings, strash, outputs int
	passUS := 0.0
	for _, s := range last {
		merged += s.res.Stats.MergedAway
		copies += s.res.Stats.Copies
		clusters += s.res.Stats.Clusters
		microOps += s.exec.MicroOps()
		findings += s.findings
		strash += s.strash
		outputs += len(s.outs)
		passUS += median(passes[s.name]) / 1e3
	}
	r.set("mapping.merged_away", "count", float64(merged))
	r.set("mapping.copies", "count", float64(copies))
	r.set("mapping.clusters", "count", float64(clusters))
	r.set("sim.micro_ops", "count", float64(microOps))
	r.set("verify.findings", "count", float64(findings))
	r.set("verify.strash_share", "ratio", float64(strash)/float64(outputs))
	r.set("sim.pass_us", "us", passUS)
}

// probeSet is the traced run's side probe for workloads whose operations
// do not compile: it compiles the workload's program set layer by layer
// reps times and times a 256-lane pass of each program, reports the
// per-layer compile metrics, and returns the last repetition's programs.
func probeSet(r *result, tr *tracer, rng *rand.Rand, reps int, fronts []namedFront) ([]*staged, error) {
	var costs [][]stageCosts
	var set []*staged
	passes := map[string][]float64{}
	for rep := 0; rep < reps; rep++ {
		op := -int64(rep + 1) // probe operations get negative ids
		root := tr.begin("probe.compile", "", op, spanRef{})
		set = nil
		for _, f := range fronts {
			s, err := compileStaged(tr, op, root, f.name, f.front)
			if err != nil {
				root.end()
				return nil, err
			}
			set = append(set, s)
			d, err := passProbe(tr, op, f.name, s.exec, rng, 50)
			if err != nil {
				root.end()
				return nil, err
			}
			passes[f.name] = append(passes[f.name], float64(d))
		}
		root.end()
		costs = append(costs, costsOf(set))
	}
	stagedSet(r, costs, set, passes)
	return set, nil
}

type namedFront struct {
	name  string
	front func() (*dfg.Graph, error)
}
