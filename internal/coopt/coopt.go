// Package coopt closes the loop between logic synthesis and crossbar
// scheduling: it lifts a kernel DFG into the AIG substrate, applies a
// portfolio of resynthesis pass sequences (balance, cut rewriting against
// an NPN class library, MFFC refactoring), maps every candidate through the
// real scheduler, and scores it with the array cost model — keeping the
// best mapping found and iterating until the budget or patience runs out.
//
// Every candidate that could be adopted must clear two independent gates
// first: the emitted program verifies at zero findings, and the scheduled
// program is statically PROVEN equivalent to the original kernel by the
// translation validator (internal/verify) — symbolic execution into an AIG,
// discharged by strash, cosimulation, an AC-normalizing rebuild and an
// exhaustive table over joint supports of at most 16 inputs. Candidates the
// proof leaves unproven fall back to packed random equivalence fuzzing; a
// refutation is a hard rejection. Candidates that fail anything are
// rejections, never errors — the baseline compile is always the floor.
package coopt

import (
	"fmt"
	"sync/atomic"

	"sherlock/internal/aig"
	"sherlock/internal/dfg"
	"sherlock/internal/mapping"
	"sherlock/internal/memo"
	"sherlock/internal/pool"
)

// PassKind names one resynthesis pass in a portfolio sequence.
type PassKind int

const (
	// PassBalance rebuilds AND/XOR chains depth-minimally.
	PassBalance PassKind = iota
	// PassRewrite applies DAG-aware 4-input cut rewriting.
	PassRewrite
	// PassRefactor collapses and resynthesizes maximum fanout-free cones.
	PassRefactor
)

func (p PassKind) String() string {
	switch p {
	case PassBalance:
		return "balance"
	case PassRewrite:
		return "rewrite"
	case PassRefactor:
		return "refactor"
	default:
		return fmt.Sprintf("PassKind(%d)", int(p))
	}
}

// SeqString renders a pass sequence for logs ("rewrite+refactor"; the empty
// sequence — the pure polarity-aware round-trip — prints as "roundtrip").
func SeqString(seq []PassKind) string {
	if len(seq) == 0 {
		return "roundtrip"
	}
	s := ""
	for i, p := range seq {
		if i > 0 {
			s += "+"
		}
		s += p.String()
	}
	return s
}

// DefaultPortfolio is the full candidate generator set. The empty sequence
// is deliberate: lift→lower alone performs polarity-aware operator
// reselection (NOT elimination into NAND/NOR/XNOR), which already moves the
// instruction count.
func DefaultPortfolio() [][]PassKind {
	return [][]PassKind{
		{},
		{PassBalance},
		{PassRewrite},
		{PassRefactor},
		{PassRewrite, PassRefactor},
		{PassRefactor, PassRewrite, PassBalance},
	}
}

// PortfolioBalance is the ablation portfolio: round-trip and balance only.
func PortfolioBalance() [][]PassKind {
	return [][]PassKind{{}, {PassBalance}}
}

// Config parameterizes one optimization run. Evaluate and Score connect the
// optimizer to the caller's real pipeline: Evaluate must apply whatever
// graph transforms precede mapping (MRA substitution, NAND lowering) and
// run the mapper; Score prices a finished mapping.
type Config struct {
	Iterations int // candidate-generation rounds (default 4)
	Workers    int // pool fan-out; <=0 selects GOMAXPROCS
	MaxRows    int // verify gate: device row-activation limit (0 = unchecked)

	Portfolio [][]PassKind // nil selects DefaultPortfolio

	Evaluate func(*dfg.Graph) (*mapping.Result, error)
	Score    func(*mapping.Result) (Score, error)
}

// Fixed search budgets. Candidates are ranked by the default Weights.
const (
	patience  = 2 // stop after this many rounds without global improvement
	fuzzWords = 8 // 64-lane random vectors per backstop equivalence fuzz
	fuzzSeed  = 1 // seed of the backstop fuzz vectors
)

func (c Config) withDefaults() Config {
	if c.Iterations <= 0 {
		c.Iterations = 4
	}
	if c.Portfolio == nil {
		c.Portfolio = DefaultPortfolio()
	}
	return c
}

// IterationStats records one candidate-generation round.
type IterationStats struct {
	Iteration     int
	BestSeq       string  // winning portfolio sequence this round
	BestObjective float64 // winner's objective (1.0 = baseline)
	Adopted       bool    // winner improved the global best
	Rejected      int     // candidates rejected this round
}

// Stats summarizes an Optimize run.
type Stats struct {
	Improved      bool
	BaselineScore Score
	BestScore     Score
	BestObjective float64 // weighted objective of the final result vs baseline
	AndsBefore    int     // lifted AIG size of the original kernel
	AndsAfter     int     // AIG size of the adopted candidate (== AndsBefore if none)
	Evaluations   int     // full candidate evaluations (lower+map+verify+prove+score)
	CacheHits     int     // candidates served from the fingerprint memo
	Rejected      int     // candidates rejected by any gate
	Proved        int     // candidates statically proven equivalent (fuzz skipped)
	FuzzBackstops int     // candidates that fell back to dynamic fuzzing (proof budget exhausted)
	Iterations    []IterationStats
}

// Result is the outcome of an Optimize run: the graph that should be
// compiled (the resynthesized kernel, or the original when nothing beat the
// baseline) and its finished mapping.
type Result struct {
	Graph  *dfg.Graph
	Mapped *mapping.Result
	Stats  Stats
}

type evalOut struct {
	graph *dfg.Graph
	res   *mapping.Result
	score Score
}

// Optimize runs the co-optimization loop over kernel g. The baseline —
// g evaluated through the caller's own pipeline — is always the floor: on
// any lift failure or total candidate rejection the baseline mapping is
// returned with Improved == false.
func Optimize(g *dfg.Graph, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Evaluate == nil || cfg.Score == nil {
		return nil, fmt.Errorf("coopt: Config.Evaluate and Config.Score are required")
	}

	baseRes, err := cfg.Evaluate(g)
	if err != nil {
		return nil, fmt.Errorf("coopt: baseline evaluation: %w", err)
	}
	baseScore, err := cfg.Score(baseRes)
	if err != nil {
		return nil, fmt.Errorf("coopt: baseline scoring: %w", err)
	}
	res := &Result{
		Graph:  g,
		Mapped: baseRes,
		Stats: Stats{
			BaselineScore: baseScore,
			BestScore:     baseScore,
			BestObjective: 1,
		},
	}

	orig, err := aig.LiftDFG(g)
	if err != nil {
		// Kernel uses ops outside the AIG substrate: baseline stands.
		res.Stats.Rejected++
		return res, nil
	}
	res.Stats.AndsBefore = orig.Size()
	res.Stats.AndsAfter = orig.Size()

	cache := memo.New[[32]byte, *evalOut](memo.Config[*evalOut]{MaxEntries: 256})
	var proved, backstops atomic.Int64
	eval := func(c *aig.Cone) (*evalOut, error) {
		return cache.Do(c.Fingerprint(), func() (*evalOut, error) {
			lowered, err := c.Lower()
			if err != nil {
				return nil, err
			}
			mapped, err := cfg.Evaluate(lowered)
			if err != nil {
				return nil, err
			}
			if err := VerifyMapped(mapped, cfg.MaxRows); err != nil {
				return nil, err
			}
			// Translation validation against the ORIGINAL kernel: a full
			// proof covers the resynthesis, the caller's graph transforms,
			// and the scheduler in one pass and subsumes the fuzz. A
			// refutation (or a malformed readout interface) rejects the
			// candidate outright; only a budget-exhausted proof falls back
			// to dynamic fuzzing of the lowered DFG.
			rep, perr := ProveMapped(mapped, g)
			switch {
			case perr != nil:
				return nil, perr
			case rep.AllProven():
				proved.Add(1)
			case rep.AnyRefuted():
				return nil, rep.Err()
			default:
				backstops.Add(1)
				if err := FuzzEquivalence(g, lowered, fuzzWords, fuzzSeed); err != nil {
					return nil, err
				}
			}
			score, err := cfg.Score(mapped)
			if err != nil {
				return nil, err
			}
			return &evalOut{graph: lowered, res: mapped, score: score}, nil
		})
	}

	var (
		bestOut  *evalOut  // nil while the baseline still leads
		bestCone *aig.Cone // cone of the global best candidate
		bestObj  = 1.0
		cur      = orig
		stalls   = 0
	)
	for it := 1; it <= cfg.Iterations && stalls < patience; it++ {
		seqs := cfg.Portfolio
		cones := make([]*aig.Cone, len(seqs))
		outs := make([]*evalOut, len(seqs))
		errs := make([]error, len(seqs))
		_ = pool.Run(cfg.Workers, len(seqs), func(i int) error {
			cones[i] = applyPasses(cur, seqs[i])
			outs[i], errs[i] = eval(cones[i])
			return nil
		})

		ist := IterationStats{Iteration: it, BestSeq: "none", BestObjective: 1}
		roundIdx := -1
		roundObj := 0.0
		for i := range outs {
			if errs[i] != nil {
				ist.Rejected++
				continue
			}
			obj := Weights{}.Objective(outs[i].score, baseScore)
			if roundIdx < 0 || obj < roundObj {
				roundIdx, roundObj = i, obj
			}
		}
		res.Stats.Rejected += ist.Rejected
		if roundIdx < 0 {
			// Every candidate rejected: nothing to move to, stop searching.
			res.Stats.Iterations = append(res.Stats.Iterations, ist)
			break
		}
		ist.BestSeq = SeqString(seqs[roundIdx])
		ist.BestObjective = roundObj
		if roundObj < bestObj {
			bestObj = roundObj
			bestOut = outs[roundIdx]
			bestCone = cones[roundIdx]
			ist.Adopted = true
			stalls = 0
		} else {
			stalls++
		}
		// Diversify from the round winner even when it did not beat the
		// global best; patience bounds how long that is allowed to wander.
		cur = cones[roundIdx]
		res.Stats.Iterations = append(res.Stats.Iterations, ist)
	}

	st := cache.Stats()
	res.Stats.Evaluations = int(st.Misses)
	res.Stats.CacheHits = int(st.Hits + st.Coalesced)
	res.Stats.Proved = int(proved.Load())
	res.Stats.FuzzBackstops = int(backstops.Load())
	if bestOut != nil {
		res.Graph = bestOut.graph
		res.Mapped = bestOut.res
		res.Stats.Improved = true
		res.Stats.BestScore = bestOut.score
		res.Stats.BestObjective = bestObj
		res.Stats.AndsAfter = bestCone.Size()
	}
	return res, nil
}

func applyPasses(c *aig.Cone, seq []PassKind) *aig.Cone {
	for _, p := range seq {
		switch p {
		case PassBalance:
			g, outs := aig.Balance(c.G, c.Outs)
			c = c.WithNet(g, outs)
		case PassRewrite:
			g, outs, _ := aig.Rewrite(c.G, c.Outs)
			c = c.WithNet(g, outs)
		case PassRefactor:
			g, outs, _ := aig.Refactor(c.G, c.Outs)
			c = c.WithNet(g, outs)
		}
	}
	return c
}
