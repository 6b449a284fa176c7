package dfg

import (
	"fmt"

	"sherlock/internal/logic"
)

// Evaluate computes every operand's value given an assignment of all kernel
// inputs. It is the golden functional semantics against which the mapped
// and simulated program is verified.
func Evaluate(g *Graph, inputs map[NodeID]bool) (map[NodeID]bool, error) {
	vals := make(map[NodeID]bool, len(g.nodes))
	for _, in := range g.inputs {
		v, ok := inputs[in]
		if !ok {
			return nil, fmt.Errorf("dfg: missing value for input %q", g.Name(in))
		}
		vals[in] = v
	}
	for _, op := range g.TopoOps() {
		ins := g.ins(op)
		bits := make([]bool, len(ins))
		for i, in := range ins {
			v, ok := vals[in]
			if !ok {
				return nil, fmt.Errorf("dfg: operand %q used before defined", g.Name(in))
			}
			bits[i] = v
		}
		vals[g.OpOutput(op)] = g.OpType(op).Eval(bits...)
	}
	return vals, nil
}

// EvaluateByName is Evaluate with string-keyed inputs and outputs: it takes
// kernel input values by name and returns the kernel outputs by their
// user-facing names.
func EvaluateByName(g *Graph, inputs map[string]bool) (map[string]bool, error) {
	byID := make(map[NodeID]bool, len(inputs))
	for _, in := range g.inputs {
		v, ok := inputs[g.Name(in)]
		if !ok {
			return nil, fmt.Errorf("dfg: missing value for input %q", g.Name(in))
		}
		byID[in] = v
	}
	vals, err := Evaluate(g, byID)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(g.outputs))
	for i, o := range g.outputs {
		out[g.outputName(i)] = vals[o]
	}
	return out, nil
}

// EvaluateWords runs the kernel over 64 independent lanes at once: bit l of
// every input word is one input assignment, and bit l of each output word is
// that lane's kernel output — the golden model's SWAR form. It is the
// name-keyed wrapper over WordEvaluator. Lanes the caller does not use carry
// garbage in the inverting ops' outputs; mask the result.
func EvaluateWords(g *Graph, inputs map[string]uint64) (map[string]uint64, error) {
	words := make([]uint64, len(g.inputs))
	for i, in := range g.inputs {
		v, ok := inputs[g.Name(in)]
		if !ok {
			return nil, fmt.Errorf("dfg: missing value for input %q", g.Name(in))
		}
		words[i] = v
	}
	res := NewWordEvaluator(g).Eval(words)
	out := make(map[string]uint64, len(g.outputs))
	for j := range g.outputs {
		out[g.outputName(j)] = res[j]
	}
	return out, nil
}

// WordEvaluator evaluates the kernel's SWAR golden semantics repeatedly
// without per-call allocation: one value word per node in a flat array and
// positional inputs/outputs (Graph.Inputs()/Graph.Outputs() order) instead
// of EvaluateWords' name-keyed maps. Monte-Carlo shards evaluate tens of
// thousands of 64-lane groups against one graph; the map churn dominated
// that loop. Not safe for concurrent use — create one per goroutine.
type WordEvaluator struct {
	g       *Graph
	ops     []NodeID
	vals    []uint64 // indexed by NodeID
	out     []uint64 // last Eval's outputs, reused
	scratch []uint64
}

// NewWordEvaluator prepares an evaluator for the graph.
func NewWordEvaluator(g *Graph) *WordEvaluator {
	return &WordEvaluator{
		g:       g,
		ops:     g.TopoOps(),
		vals:    make([]uint64, len(g.nodes)),
		out:     make([]uint64, len(g.outputs)),
		scratch: make([]uint64, 0, 8),
	}
}

// Eval computes all outputs for one 64-lane input block: inputs[i] is the
// word of kernel input i in Graph.Inputs() order, and entry j of the result
// is output j in Graph.Outputs() order. As with EvaluateWords, unused lanes
// carry garbage through inverting ops; mask the result. The returned slice
// is overwritten by the next Eval.
func (ev *WordEvaluator) Eval(inputs []uint64) []uint64 {
	g := ev.g
	if len(inputs) != len(g.inputs) {
		panic(fmt.Sprintf("dfg: %d input words for %d kernel inputs", len(inputs), len(g.inputs)))
	}
	for i, id := range g.inputs {
		ev.vals[id] = inputs[i]
	}
	for _, op := range ev.ops {
		words := ev.scratch[:0]
		for _, in := range g.ins(op) {
			words = append(words, ev.vals[in])
		}
		ev.scratch = words[:0]
		n := &g.nodes[op]
		ev.vals[n.link] = logic.Op(n.op).EvalWords(words...)
	}
	for j, o := range g.outputs {
		ev.out[j] = ev.vals[o]
	}
	return ev.out
}

// EquivalentOn checks that two graphs with identical input/output signatures
// agree on the given input assignments; it returns the first disagreement.
func EquivalentOn(a, b *Graph, assignments []map[string]bool) error {
	for i, in := range assignments {
		ra, err := EvaluateByName(a, in)
		if err != nil {
			return fmt.Errorf("graph a, assignment %d: %w", i, err)
		}
		rb, err := EvaluateByName(b, in)
		if err != nil {
			return fmt.Errorf("graph b, assignment %d: %w", i, err)
		}
		if len(ra) != len(rb) {
			return fmt.Errorf("assignment %d: output count %d vs %d", i, len(ra), len(rb))
		}
		for _, name := range a.OutputNames() {
			va := ra[name]
			vb, ok := rb[name]
			if !ok {
				return fmt.Errorf("assignment %d: output %q missing from graph b", i, name)
			}
			if va != vb {
				return fmt.Errorf("assignment %d: output %q differs (%v vs %v)", i, name, va, vb)
			}
		}
	}
	return nil
}
