// Package sherlock is an end-to-end compilation and evaluation framework
// for bulk bitwise computation in NVM compute-in-memory (CIM) arrays,
// reproducing "SHERLOCK: Scheduling Efficient and Reliable Bulk Bitwise
// Operations in NVMs" (DAC 2024).
//
// The flow mirrors the paper's Fig. 1: a high-level kernel (a C subset or a
// programmatically built data-flow graph) is lowered to a DFG, mapped onto
// the columns of a scouting-logic CIM array by either the naive (Algorithm
// 1) or the optimized clustering mapper (Algorithm 2), and emitted as an
// instruction program in the paper's format. The compiled result can be
// executed bit-exactly on the built-in array simulator, costed under
// calibrated latency/energy models for ReRAM, STT-MRAM and PCM, and
// assessed for decision-failure reliability.
//
// Quick start:
//
//	src := `void k(word a, word b, word *out) { *out = a & ~b; }`
//	c, err := sherlock.CompileC(src, sherlock.Options{
//	    Tech:      sherlock.STTMRAM,
//	    ArraySize: 512,
//	    Mapper:    sherlock.MapperOptimized,
//	})
//	outs, err := c.Run(map[string]bool{"a": true, "b": false})
//	cost, err := c.Cost()
//	rel, err := c.Reliability()
package sherlock

import (
	"fmt"
	"sync"

	"sherlock/internal/arraymodel"
	"sherlock/internal/coopt"
	"sherlock/internal/cparser"
	"sherlock/internal/device"
	"sherlock/internal/dfg"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/mapping"
	"sherlock/internal/reliability"
	"sherlock/internal/sim"
	"sherlock/internal/verify"
)

// Re-exported core types. The internal packages hold the implementations;
// these aliases form the supported public surface.
type (
	// Graph is the bulk-bitwise data-flow graph.
	Graph = dfg.Graph
	// Builder constructs Graphs from expressions with folding and CSE.
	Builder = dfg.Builder
	// Val is a Builder value handle.
	Val = dfg.Val
	// Program is a CIM instruction sequence (paper Fig. 4 format).
	Program = isa.Program
	// Instruction is one CIM instruction.
	Instruction = isa.Instruction
	// Target describes the CIM fabric available to the mapper.
	Target = layout.Target
	// Place is a cell coordinate (array, column, row).
	Place = layout.Place
	// Technology identifies an NVM cell technology.
	Technology = device.Technology
	// DeviceParams is a technology's cell and sensing model.
	DeviceParams = device.Params
	// Cost is measured latency/energy of a program.
	Cost = sim.Cost
	// ReliabilityReport is the decision-failure assessment of a program.
	ReliabilityReport = reliability.Report
	// MappingStats summarizes what the mapper did.
	MappingStats = mapping.Stats
	// VerifyReport is the static verifier's result for a program.
	VerifyReport = verify.Report
	// VerifyFinding is one static-verifier diagnostic.
	VerifyFinding = verify.Finding
	// EquivalenceReport is the translation validator's per-output proof
	// record (see Compiled.VerifyEquivalence).
	EquivalenceReport = verify.EquivReport
)

// Supported technologies.
const (
	STTMRAM = device.STTMRAM
	ReRAM   = device.ReRAM
	PCM     = device.PCM
)

// NewBuilder returns a fresh DFG builder (the programmatic front-end).
func NewBuilder() *Builder { return dfg.NewBuilder() }

// ParamsFor returns the calibrated device model of a technology.
func ParamsFor(t Technology) DeviceParams { return device.ParamsFor(t) }

// MapperKind selects the mapping algorithm.
type MapperKind int

// The two mappers of the paper.
const (
	MapperNaive     MapperKind = iota // Algorithm 1: column-major packing
	MapperOptimized                   // Algorithm 2: clustering + instruction merging
)

func (m MapperKind) String() string {
	switch m {
	case MapperNaive:
		return "naive"
	case MapperOptimized:
		return "optimized"
	}
	return fmt.Sprintf("MapperKind(%d)", int(m))
}

// Options configures compilation.
type Options struct {
	// Tech selects the NVM technology (default STTMRAM).
	Tech Technology
	// ArraySize is the squared array dimension n (default 512); the cost
	// model uses Table 1's n x n geometry with data width 4n.
	ArraySize int
	// Arrays is how many arrays the mapper may spread across (default 4).
	Arrays int
	// Mapper selects Algorithm 1 or 2 (default MapperOptimized).
	Mapper MapperKind

	// MultiRowActivation applies the node-substitution transform
	// (Sec. 3.3.3), fusing same-type chains into multi-operand ops up to
	// the technology's row-activation limit.
	MultiRowActivation bool
	// MRAFraction is the fraction of fusion opportunities taken when
	// MultiRowActivation is set (default 1); a value outside [0,1] is a
	// compile error.
	MRAFraction float64
	// NANDLowering rewrites XOR/OR into NAND/NOT form — the reliable
	// configuration for STT-MRAM (Fig. 6b).
	NANDLowering bool
	// RecycleRows lets the mapper reuse rows of dead intermediates,
	// stretching the limited array capacity (an extension beyond the
	// paper's mappers; see DESIGN.md).
	RecycleRows bool
	// WearLeveling spreads recycled-row reuse across the column (FIFO
	// rotation after fresh rows), trading locality for endurance.
	WearLeveling bool

	// VerifyEmitted runs the static program verifier (internal/verify) on
	// the emitted instruction stream before returning from compilation — a
	// debug gate proving the mapper's output is def-before-use sound,
	// in-bounds, and free of dead stores or shadowed writes without
	// executing a single lane. Compilation fails if any finding surfaces.
	VerifyEmitted bool

	// VerifyEquivalence runs the translation validator after mapping: the
	// emitted instruction stream is symbolically executed into an AIG and
	// proven equivalent to the SOURCE kernel (pre-MRA, pre-NAND-lowering,
	// pre-resynthesis), so every transform in the pipeline is covered by
	// the proof. Compilation fails if any output is refuted or cannot be
	// proven within budget. See Compiled.VerifyEquivalence.
	VerifyEquivalence bool

	// Resynthesize turns on synthesis↔scheduling co-optimization
	// (internal/coopt): the kernel is lifted into an AIG, a portfolio of
	// resynthesis passes generates candidate nets, each candidate is mapped
	// through the configured mapper and priced on the real cost models, and
	// the best verified, equivalence-fuzzed mapping wins. The baseline
	// compile is always the floor — a run can only match or improve it.
	Resynthesize bool
	// ResynthIterations bounds the candidate-generation rounds when
	// Resynthesize is set (default 4).
	ResynthIterations int
}

func (o Options) withDefaults() Options {
	if o.ArraySize == 0 {
		o.ArraySize = 512
	}
	if o.Arrays == 0 {
		o.Arrays = 4
	}
	if o.MultiRowActivation && o.MRAFraction == 0 {
		o.MRAFraction = 1
	}
	if o.Resynthesize && o.ResynthIterations == 0 {
		o.ResynthIterations = 4
	}
	return o
}

// Normalized returns the options with every defaulted field resolved to
// its concrete value — the canonical form: two Options values that compile
// identically normalize identically, which is what content-addressed
// caches (internal/serve) key on.
func (o Options) Normalized() Options { return o.withDefaults() }

// ResynthStats reports what the co-optimization loop did: baseline and
// best scores, AIG sizes, candidate counts and per-iteration outcomes.
type ResynthStats = coopt.Stats

// Compiled is a mapped kernel ready to execute, cost and assess.
type Compiled struct {
	Graph   *Graph
	Program Program
	Stats   MappingStats

	// Resynth holds the co-optimization report when Options.Resynthesize
	// was set; nil otherwise.
	Resynth *ResynthStats

	opts   Options
	target Target
	source *Graph // the pre-transform kernel, equivalence ground truth

	bindOnce  sync.Once
	bindNames []string // host-write bindings, in first-use order

	// The kernel outputs, resolved against the mapper's layout at compile
	// time so the layout itself is not retained.
	outNames  []string // kernel outputs, in Graph.Outputs() order
	outPlaces []Place  // readout cell of each output, same order
	outErr    error    // why an output has no cell, if one has none

	// The program decodes once per Compiled into one chunked stream
	// (internal/sim) at the auto chunk width. Every packed execution — Run,
	// RunBatch, RunBatchWords and Streamer.Run — runs on it, concurrently.
	streamOnce sync.Once
	streamExec *sim.Exec // the decoded program; RunWithFaults arms its own machine
	streamVal  *sim.Stream
	streamErr  error
	chunkWords int // forced chunk width in words, 0 = auto (tests)

	runMu sync.Mutex
	runs  []*packedRun // idle per-call states
}

// CompileC parses a C-subset kernel (see internal/cparser for the accepted
// dialect) and compiles it.
func CompileC(src string, opts Options) (*Compiled, error) {
	parsed, err := cparser.Compile(src)
	if err != nil {
		return nil, err
	}
	return CompileGraph(parsed.Graph, opts)
}

// CompileGraph maps an already-built DFG.
func CompileGraph(g *Graph, opts Options) (*Compiled, error) {
	opts = opts.withDefaults()
	if opts.MultiRowActivation && !(opts.MRAFraction >= 0 && opts.MRAFraction <= 1) {
		return nil, fmt.Errorf("sherlock: MRAFraction %g outside [0,1]", opts.MRAFraction)
	}
	params := device.ParamsFor(opts.Tech)

	// mapGraph is the full lower half of the pipeline — graph transforms
	// (MRA fusion, NAND lowering) plus the configured mapper — so every
	// co-optimization candidate is priced on exactly the program it would
	// ship as.
	mapGraph := func(g *dfg.Graph) (*mapping.Result, error) {
		if opts.MultiRowActivation {
			g, _ = dfg.SubstituteNodes(g, dfg.SubstituteOptions{
				MaxOperands: params.MaxRows,
				Fraction:    opts.MRAFraction,
				Seed:        1,
			})
		}
		if opts.NANDLowering {
			g, _ = dfg.LowerToNAND(g)
		}
		mopts := mapping.Options{
			Target: Target{
				Arrays: opts.Arrays,
				Rows:   opts.ArraySize,
				Cols:   opts.ArraySize,
			},
			RecycleRows:  opts.RecycleRows,
			WearLeveling: opts.WearLeveling,
		}
		if opts.Mapper == MapperNaive {
			return mapping.Naive(g, mopts)
		}
		return mapping.Optimized(g, mopts)
	}

	var res *mapping.Result
	var rstats *ResynthStats
	if opts.Resynthesize {
		model := arraymodel.New(arraymodel.DefaultConfig(opts.Tech, opts.ArraySize))
		r, err := coopt.Optimize(g, coopt.Config{
			Iterations: opts.ResynthIterations,
			MaxRows:    params.MaxRows,
			Evaluate:   mapGraph,
			Score: func(m *mapping.Result) (coopt.Score, error) {
				return coopt.ScoreMapped(m, model, params)
			},
		})
		if err != nil {
			return nil, err
		}
		res = r.Mapped
		rstats = &r.Stats
	} else {
		var err error
		if res, err = mapGraph(g); err != nil {
			return nil, err
		}
	}
	// res.Graph is the graph the mapper actually placed (post-transform,
	// post-resynthesis); output NodeIDs must resolve against it.
	c := &Compiled{
		Graph:    res.Graph,
		Program:  res.Program,
		Stats:    res.Stats,
		Resynth:  rstats,
		opts:     opts,
		target:   res.Layout.Target(),
		source:   g,
		outNames: res.Graph.OutputNames(),
	}
	outs := res.Graph.Outputs()
	c.outPlaces = make([]Place, len(outs))
	for i, out := range outs {
		if c.outPlaces[i], c.outErr = res.OutputPlace(out); c.outErr != nil {
			break
		}
	}
	if opts.VerifyEmitted {
		if rep := c.Verify(); len(rep.Findings) != 0 {
			return nil, fmt.Errorf("sherlock: emitted program failed static verification (%d findings, first: %v)",
				len(rep.Findings), rep.Findings[0])
		}
	}
	if opts.VerifyEquivalence {
		rep, err := c.VerifyEquivalence()
		if err != nil {
			return nil, err
		}
		if err := rep.Err(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Verify statically analyzes the compiled program against its fabric: the
// full strict-mode property set (def-before-use, bounds, merge legality)
// plus liveness diagnostics the interpreter cannot give (dead stores,
// write-after-write shadows, unused inputs, leftover row-buffer values).
// A correct mapper produces zero findings; see internal/verify.
func (c *Compiled) Verify() *VerifyReport {
	return verify.ProgramOpts(c.Program, c.target, verify.Options{
		MaxRows: device.ParamsFor(c.opts.Tech).MaxRows,
	})
}

// VerifyEquivalence statically proves the emitted program computes the
// source kernel: the instruction stream is abstract-interpreted over AIG
// literals (internal/verify) and each readout is discharged against the
// kernel's lifted cone — structural hashing first, then random
// cosimulation and exhaustive checking on small cones. The ground truth is
// the graph handed to CompileGraph, before MRA fusion, NAND lowering, or
// resynthesis, so the proof covers every transform in the pipeline. The
// returned report carries a per-output verdict; its Err method surfaces
// the first refutation (with a concrete counterexample assignment) or
// unproven output.
func (c *Compiled) VerifyEquivalence() (*EquivalenceReport, error) {
	outNames, outPlaces, err := c.outputs()
	if err != nil {
		return nil, err
	}
	outs := make([]verify.OutputAt, len(outNames))
	for i := range outNames {
		outs[i] = verify.OutputAt{Name: outNames[i], Place: outPlaces[i]}
	}
	return verify.EquivalentOpts(c.Program, c.target, c.source, outs, verify.EquivOptions{})
}

// Cost measures the program under the compiled technology and array size,
// with the conservative one-instruction-at-a-time timing model.
func (c *Compiled) Cost() (Cost, error) {
	cm := arraymodel.New(arraymodel.DefaultConfig(c.opts.Tech, c.opts.ArraySize))
	return sim.Measure(c.Program, cm)
}

// CostParallel measures with the multi-array timing model: instructions on
// different arrays overlap when their data dependences allow, exposing the
// subarray parallelism of the target system.
func (c *Compiled) CostParallel() (Cost, error) {
	cm := arraymodel.New(arraymodel.DefaultConfig(c.opts.Tech, c.opts.ArraySize))
	return sim.MeasureParallel(c.Program, cm)
}

// Reliability assesses the application failure probability P_app.
func (c *Compiled) Reliability() (ReliabilityReport, error) {
	return reliability.Assess(c.Program, device.ParamsFor(c.opts.Tech))
}

// Wear reports the per-cell write pressure of one execution (endurance).
func (c *Compiled) Wear() (reliability.WearReport, error) {
	return reliability.AssessWear(c.Program)
}

// Timeline returns the per-instruction schedule under the multi-array
// timing model, exportable with sim.WriteTimelineCSV.
func (c *Compiled) Timeline() ([]sim.Event, Cost, error) {
	cm := arraymodel.New(arraymodel.DefaultConfig(c.opts.Tech, c.opts.ArraySize))
	return sim.Schedule(c.Program, cm)
}

// Run executes the program bit-exactly on the array simulator with the
// given input assignment and reads back the kernel outputs by name: it is
// RunBatch of one vector.
func (c *Compiled) Run(inputs map[string]bool) (map[string]bool, error) {
	outs, err := c.RunBatch([]map[string]bool{inputs}, 1)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RunWithFaults executes with fault injection enabled: every sense decision
// flips with its decision-failure probability. It additionally returns how
// many faults were injected. The run is one lane of the pre-decoded
// executor, on a fresh machine armed with the geometric-skip sampler.
func (c *Compiled) RunWithFaults(inputs map[string]bool, seed int64) (map[string]bool, int, error) {
	if _, err := c.stream(); err != nil {
		return nil, 0, err
	}
	words := make(map[string]uint64, len(inputs))
	for name, v := range inputs { //sherlock:allow rangemap (each name owns its entry)
		words[name] = 0
		if v {
			words[name] = 1
		}
	}
	m := c.streamExec.NewMachine(1)
	m.Reset(1)
	m.EnableFaultInjection(device.ParamsFor(c.opts.Tech), seed)
	if err := m.RunMap(words); err != nil {
		return nil, 0, err
	}
	outNames, outPlaces, err := c.outputs()
	if err != nil {
		return nil, 0, err
	}
	outs := make(map[string]bool, len(outNames))
	for i, p := range outPlaces {
		w, err := m.ReadOutWord(p, 0)
		if err != nil {
			return nil, 0, err
		}
		outs[outNames[i]] = w&1 == 1
	}
	return outs, m.FaultCount(0), nil
}

// RunBatch executes the program once per input assignment: the maps pack
// into a RunBatchWords input block (one vector per bit lane), run through
// RunBatchWords with up to parallelism workers (0 selects
// runtime.GOMAXPROCS(0)), and unpack into one output map per vector.
// Outputs come back in input order, one map per vector. An empty batch
// returns an empty result.
//
// Ownership: the returned maps are freshly allocated on every call and
// never retained or pooled by the library — the caller may keep, mutate,
// or discard them freely without affecting any later batch.
func (c *Compiled) RunBatch(batch []map[string]bool, parallelism int) ([]map[string]bool, error) {
	outs := make([]map[string]bool, len(batch))
	if len(batch) == 0 {
		return outs, nil
	}
	outNames, _, err := c.outputs()
	if err != nil {
		return nil, err
	}
	names := c.inputNames()
	W := laneWords(len(batch))
	// One block holds the packed inputs, then room for the outputs.
	block := make([]uint64, (len(names)+len(outNames))*W)
	in := block[:len(names)*W]
	for l, inp := range batch {
		for slot, name := range names {
			v, ok := inp[name]
			if !ok {
				return nil, fmt.Errorf("sherlock: batch input %d: unbound input %q", l, name)
			}
			if v {
				in[slot*W+l/sim.WordLanes] |= uint64(1) << uint(l%sim.WordLanes)
			}
		}
	}
	out, err := c.RunBatchWords(in, len(batch), block[len(in):], parallelism)
	if err != nil {
		return nil, err
	}
	for l := range outs {
		m := make(map[string]bool, len(outNames))
		for o, name := range outNames {
			m[name] = out[o*W+l/sim.WordLanes]>>uint(l%sim.WordLanes)&1 == 1
		}
		outs[l] = m
	}
	return outs, nil
}

// RunBatchWords is the packed-bits fast path: lanes input vectors arrive
// pre-packed one-per-bit in lane words instead of one map[string]bool per
// vector, bypassing the name resolution and per-vector decode of RunBatch
// entirely. The layout is slot-major with stride W = ceil(lanes/64) words:
// bit l of word in[s*W + w] is vector (64w+l)'s value for input slot s,
// where slot order is InputNames(). Outputs return output-major with the
// same stride: out[o*W + w] carries output o (OutputNames() order) of
// vectors 64w..64w+63, dead lanes masked to zero. A non-nil out with
// sufficient capacity is reused, making steady-state calls allocation-free.
// The lanes stream through the Compiled's chunked executor, up to
// parallelism chunks at a time (0 selects runtime.GOMAXPROCS(0)), each
// chunk's outputs copying straight into out; concurrent calls are safe.
func (c *Compiled) RunBatchWords(in []uint64, lanes int, out []uint64, parallelism int) ([]uint64, error) {
	return c.runPacked(in, lanes, out, nil, parallelism)
}

// laneWords returns W, the per-slot word stride of a packed lane block.
func laneWords(lanes int) int { return (lanes + sim.WordLanes - 1) / sim.WordLanes }

// InputNames returns the host-input names the compiled program consumes, in
// slot order: slot s of a RunBatchWords input block carries the s-th name.
func (c *Compiled) InputNames() []string {
	return append([]string(nil), c.inputNames()...)
}

// OutputNames returns the kernel's output names in readout order: row o of
// a RunBatchWords output block carries the o-th name.
func (c *Compiled) OutputNames() []string { return c.Graph.OutputNames() }

// stream returns the Compiled's chunked executor: the program decodes and
// the stream is built once, on first use.
func (c *Compiled) stream() (*sim.Stream, error) {
	c.streamOnce.Do(func() {
		ex, err := sim.Predecode(c.Program, c.target)
		if err != nil {
			c.streamErr = err
			return
		}
		c.streamExec = ex
		c.streamVal, c.streamErr = sim.NewStream(ex, sim.StreamConfig{BlockWords: c.chunkWords})
	})
	return c.streamVal, c.streamErr
}

// inputNames returns the host-write bindings the program consumes, computed
// once per Compiled. The first-use order is exactly sim.Predecode's slot
// order, so index i here is input slot i of the executor.
func (c *Compiled) inputNames() []string {
	c.bindOnce.Do(func() {
		c.bindNames = c.Program.Bindings()
	})
	return c.bindNames
}

// outputs returns the kernel outputs' names and readout cells, or the error
// that left an output without a cell.
func (c *Compiled) outputs() ([]string, []Place, error) {
	return c.outNames, c.outPlaces, c.outErr
}

// Evaluate computes the kernel's reference semantics directly on the DFG
// (no mapping involved) — the golden model Run is verified against.
func (c *Compiled) Evaluate(inputs map[string]bool) (map[string]bool, error) {
	return dfg.EvaluateByName(c.Graph, inputs)
}
