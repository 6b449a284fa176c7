// Package dfg implements the data-flow graph at the heart of Sherlock.
//
// The DFG is a bipartite DAG (paper Fig. 3b): operand nodes carry values
// (kernel inputs, intermediates, outputs) and op nodes carry logic
// operations. Op nodes have unit weight, operand nodes zero weight; the
// b-level of an op node (its longest path to a sink, Kwok & Ahmad) is the
// scheduling priority used by both mapping algorithms.
package dfg

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"

	"sherlock/internal/logic"
)

// NodeID identifies a node within one Graph.
type NodeID int

// NoNode is the null NodeID.
const NoNode NodeID = -1

// Kind distinguishes the two node classes of the bipartite DAG.
type Kind uint8

// Node kinds.
const (
	KindOperand Kind = iota + 1
	KindOp
)

func (k Kind) String() string {
	switch k {
	case KindOperand:
		return "operand"
	case KindOp:
		return "op"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

type node struct {
	kind Kind
	op   logic.Op // KindOp only
	name string   // explicit operand name; "" when synthesized (see Name)
}

// Graph is a bulk-bitwise data-flow graph. Construct with New and the Add*
// methods; graphs are acyclic by construction (ops may only consume operands
// that already exist).
//
// Every relation is a slice indexed by NodeID and grown with nodes, so the
// many walks of one compile (b-levels, the ready walker, clustering,
// emission, the AIG lift) index instead of hashing. Default names are not
// stored: op labels and intermediate operand names are formatted by Name
// on demand, and byName holds only explicit names.
type Graph struct {
	nodes  []node
	numOps int

	// Op node relations (nil / NoNode on operand nodes).
	opInputs [][]NodeID // op -> ordered input operands
	opOutput []NodeID   // op -> result operand

	// Operand relations (NoNode / nil on op nodes).
	producer  []NodeID   // operand -> op producing it (NoNode if input)
	consumers [][]NodeID // operand -> ops consuming it

	inputs      []NodeID // operands with no producer, in creation order
	outputs     []NodeID // operands marked as kernel outputs, in mark order
	outputAlias []string // user-facing name per outputs entry; "" for none
	outPos      []int32  // node -> 1 + its index in outputs; 0 if not an output

	byName map[string]NodeID // explicit operand names and output aliases -> id
	// maxT is the largest N of a canonical "t<N>" name in byName (NoNode if
	// none): only a synthesized operand at or below it can collide with an
	// explicit name.
	maxT NodeID

	// B-level cache: b-levels are needed several times per compile
	// (clustering, code generation) but only change when nodes are added.
	// Guarded by mu so concurrent campaign workers can share one graph.
	mu      sync.Mutex
	blCache []int32 // b-level per node (op entries only), nil when stale
	maxBL   int32   // maximum b-level, valid when blCache is
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID), maxT: NoNode}
}

func (g *Graph) addNode(n node) NodeID {
	g.mu.Lock()
	g.blCache = nil
	g.mu.Unlock()
	g.nodes = append(g.nodes, n)
	g.opInputs = append(g.opInputs, nil)
	g.opOutput = append(g.opOutput, NoNode)
	g.producer = append(g.producer, NoNode)
	g.consumers = append(g.consumers, nil)
	g.outPos = append(g.outPos, 0)
	return NodeID(len(g.nodes) - 1)
}

// AddInput creates a kernel-input operand with the given unique name.
func (g *Graph) AddInput(name string) NodeID {
	id := g.addOperand(name)
	g.inputs = append(g.inputs, id)
	return id
}

// addOperand creates an operand node, with a synthesized name ("t<id>")
// when name is empty. Explicit and synthesized names share one namespace.
func (g *Graph) addOperand(name string) NodeID {
	if name == "" {
		if id := NodeID(len(g.nodes)); id <= g.maxT {
			t := synthOperandName(id)
			if _, dup := g.byName[t]; dup {
				panic(fmt.Sprintf("dfg: duplicate operand name %q", t))
			}
		}
		return g.addNode(node{kind: KindOperand})
	}
	if g.nameTaken(name) {
		panic(fmt.Sprintf("dfg: duplicate operand name %q", name))
	}
	id := g.addNode(node{kind: KindOperand, name: name})
	g.bindName(name, id)
	return id
}

// synthOperandName is the default name of operand id.
func synthOperandName(id NodeID) string { return "t" + strconv.Itoa(int(id)) }

// parseSynthName reports the N of a canonical synthesized operand name
// "t<N>": decimal digits only, no sign, no leading zero. "t+5", "t05" and
// "t-1" are ordinary names.
func parseSynthName(name string) (NodeID, bool) {
	if len(name) < 2 || name[0] != 't' || (name[1] == '0' && len(name) > 2) {
		return NoNode, false
	}
	for i := 1; i < len(name); i++ {
		if name[i] < '0' || name[i] > '9' {
			return NoNode, false
		}
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil {
		return NoNode, false // out of range: no node can carry it
	}
	return NodeID(n), true
}

// synthesizedOperand resolves a canonical "t<N>" name to operand N when that
// operand exists and carries its synthesized name.
func (g *Graph) synthesizedOperand(name string) (NodeID, bool) {
	id, ok := parseSynthName(name)
	if !ok || !g.isOperand(id) || g.nodes[id].name != "" {
		return NoNode, false
	}
	return id, true
}

// nameTaken reports whether name already resolves to an operand, either
// explicitly or as a synthesized name.
func (g *Graph) nameTaken(name string) bool {
	if _, ok := g.byName[name]; ok {
		return true
	}
	_, ok := g.synthesizedOperand(name)
	return ok
}

// bindName records an explicit name (operand name or output alias).
func (g *Graph) bindName(name string, id NodeID) {
	g.byName[name] = id
	if n, ok := parseSynthName(name); ok && n > g.maxT {
		g.maxT = n
	}
}

// AddOp creates an op node applying op to the given input operands and a
// fresh operand node holding its result; it returns the result operand's ID.
// Unary ops take exactly one input, sense ops at least two. The inputs must
// be operand IDs of this graph.
func (g *Graph) AddOp(op logic.Op, ins ...NodeID) NodeID {
	return g.AddOpNamed(op, "", ins...)
}

// AddOpNamed is AddOp with an explicit name for the result operand
// (synthesized when empty).
func (g *Graph) AddOpNamed(op logic.Op, resultName string, ins ...NodeID) NodeID {
	if !op.Valid() {
		panic(fmt.Sprintf("dfg: invalid op %v", op))
	}
	if op.IsUnary() {
		if len(ins) != 1 {
			panic(fmt.Sprintf("dfg: %v takes 1 operand, got %d", op, len(ins)))
		}
	} else if len(ins) < 2 {
		panic(fmt.Sprintf("dfg: %v takes >=2 operands, got %d", op, len(ins)))
	}
	for _, in := range ins {
		if !g.isOperand(in) {
			panic(fmt.Sprintf("dfg: op input %d is not an operand of this graph", in))
		}
	}
	opID := g.addNode(node{kind: KindOp, op: op})
	g.numOps++
	g.opInputs[opID] = append([]NodeID(nil), ins...)
	out := g.addOperand(resultName)
	g.opOutput[opID] = out
	g.producer[out] = opID
	for _, in := range ins {
		g.consumers[in] = append(g.consumers[in], opID)
	}
	return out
}

// MarkOutputNamed flags an operand as a kernel output under a user-facing
// alias (used when the computed operand has a synthesized internal name).
// The alias also resolves through OperandByName unless it already names an
// operand.
func (g *Graph) MarkOutputNamed(id NodeID, alias string) {
	g.MarkOutput(id)
	if alias != "" {
		g.outputAlias[len(g.outputAlias)-1] = alias
		if !g.nameTaken(alias) {
			g.bindName(alias, id)
		}
	}
}

// OutputName returns the user-facing name of an output operand: its alias
// if one was given, otherwise its operand name.
func (g *Graph) OutputName(id NodeID) string {
	if g.IsOutput(id) {
		return g.outputName(int(g.outPos[id]) - 1)
	}
	return g.Name(id)
}

// outputName returns the user-facing name of the i-th output.
func (g *Graph) outputName(i int) string {
	if a := g.outputAlias[i]; a != "" {
		return a
	}
	return g.Name(g.outputs[i])
}

// MarkOutput flags an operand as a kernel output. Outputs are reported in
// mark order. Marking the same operand twice is an error.
func (g *Graph) MarkOutput(id NodeID) {
	if !g.isOperand(id) {
		panic(fmt.Sprintf("dfg: MarkOutput of non-operand %d", id))
	}
	if g.outPos[id] != 0 {
		panic(fmt.Sprintf("dfg: operand %q already marked output", g.Name(id)))
	}
	g.outputs = append(g.outputs, id)
	g.outputAlias = append(g.outputAlias, "")
	g.outPos[id] = int32(len(g.outputs))
}

func (g *Graph) isOperand(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes) && g.nodes[id].kind == KindOperand
}

func (g *Graph) isOp(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes) && g.nodes[id].kind == KindOp
}

// NumNodes returns the total node count (operands + ops).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Kind returns the node's kind.
func (g *Graph) Kind(id NodeID) Kind { return g.nodes[id].kind }

// OpType returns the logic operation of an op node.
func (g *Graph) OpType(id NodeID) logic.Op {
	if !g.isOp(id) {
		panic(fmt.Sprintf("dfg: OpType of non-op node %d", id))
	}
	return g.nodes[id].op
}

// Name returns the node's name: an operand's explicit name, or the
// synthesized default — "t<id>" for an operand, "<OP>_<id>" for an op.
func (g *Graph) Name(id NodeID) string {
	n := &g.nodes[id]
	switch {
	case n.name != "":
		return n.name
	case n.kind == KindOp:
		return n.op.String() + "_" + strconv.Itoa(int(id))
	}
	return synthOperandName(id)
}

// OperandByName resolves an operand name (explicit, output alias, or
// synthesized "t<N>"), reporting whether it exists.
func (g *Graph) OperandByName(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	if !ok {
		if sid, synth := g.synthesizedOperand(name); synth {
			return sid, true
		}
	}
	return id, ok
}

// Inputs returns the kernel-input operands in creation order (a copy).
func (g *Graph) Inputs() []NodeID { return append([]NodeID(nil), g.inputs...) }

// Outputs returns the operands marked as outputs in mark order (a copy).
func (g *Graph) Outputs() []NodeID { return append([]NodeID(nil), g.outputs...) }

// IsOutput reports whether the operand is a kernel output.
func (g *Graph) IsOutput(id NodeID) bool {
	return id >= 0 && int(id) < len(g.outPos) && g.outPos[id] != 0
}

// NumOps returns the number of op nodes.
func (g *Graph) NumOps() int { return g.numOps }

// OpNodes returns all op node IDs in creation (and therefore topological)
// order.
func (g *Graph) OpNodes() []NodeID {
	out := make([]NodeID, 0, g.numOps)
	for id := range g.nodes {
		if g.nodes[id].kind == KindOp {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Operands returns all operand node IDs in creation order.
func (g *Graph) Operands() []NodeID {
	out := make([]NodeID, 0, len(g.nodes)-g.numOps)
	for id := range g.nodes {
		if g.nodes[id].kind == KindOperand {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// OpInputs returns the ordered input operands of an op node (a copy).
func (g *Graph) OpInputs(op NodeID) []NodeID {
	if !g.isOp(op) {
		panic(fmt.Sprintf("dfg: OpInputs of non-op node %d", op))
	}
	return append([]NodeID(nil), g.opInputs[op]...)
}

// AppendOpInputs appends the ordered input operands of an op node to buf
// and returns the extended slice — the allocation-free variant of OpInputs
// for hot loops that bring their own buffer.
func (g *Graph) AppendOpInputs(op NodeID, buf []NodeID) []NodeID {
	if !g.isOp(op) {
		panic(fmt.Sprintf("dfg: AppendOpInputs of non-op node %d", op))
	}
	return append(buf, g.opInputs[op]...)
}

// NumOpInputs returns the arity of an op node without copying its inputs.
func (g *Graph) NumOpInputs(op NodeID) int {
	if !g.isOp(op) {
		panic(fmt.Sprintf("dfg: NumOpInputs of non-op node %d", op))
	}
	return len(g.opInputs[op])
}

// OpOutput returns the result operand of an op node.
func (g *Graph) OpOutput(op NodeID) NodeID {
	if !g.isOp(op) {
		panic(fmt.Sprintf("dfg: OpOutput of non-op node %d", op))
	}
	return g.opOutput[op]
}

// Producer returns the op node producing the operand, or NoNode for kernel
// inputs.
func (g *Graph) Producer(operand NodeID) NodeID {
	if !g.isOperand(operand) {
		panic(fmt.Sprintf("dfg: Producer of non-operand node %d", operand))
	}
	return g.producer[operand]
}

// Consumers returns the op nodes consuming the operand (a copy).
func (g *Graph) Consumers(operand NodeID) []NodeID {
	if !g.isOperand(operand) {
		panic(fmt.Sprintf("dfg: Consumers of non-operand node %d", operand))
	}
	return append([]NodeID(nil), g.consumers[operand]...)
}

// AppendConsumers appends the op nodes consuming the operand to buf and
// returns the extended slice (the allocation-free variant of Consumers).
func (g *Graph) AppendConsumers(operand NodeID, buf []NodeID) []NodeID {
	if !g.isOperand(operand) {
		panic(fmt.Sprintf("dfg: AppendConsumers of non-operand node %d", operand))
	}
	return append(buf, g.consumers[operand]...)
}

// NumConsumers returns how many op nodes consume the operand without
// copying the consumer list.
func (g *Graph) NumConsumers(operand NodeID) int {
	if !g.isOperand(operand) {
		panic(fmt.Sprintf("dfg: NumConsumers of non-operand node %d", operand))
	}
	return len(g.consumers[operand])
}

// OpPreds returns the distinct op nodes whose outputs feed op, in input
// order.
func (g *Graph) OpPreds(op NodeID) []NodeID {
	return g.AppendOpPreds(op, nil)
}

// AppendOpPreds appends the distinct op nodes whose outputs feed op to buf
// in input order — the allocation-free variant of OpPreds. Deduplication is
// a linear scan of the appended region, which beats a map for the small
// arities real kernels have.
func (g *Graph) AppendOpPreds(op NodeID, buf []NodeID) []NodeID {
	start := len(buf)
	for _, in := range g.opInputs[op] {
		p := g.producer[in]
		if p == NoNode {
			continue
		}
		dup := false
		for _, q := range buf[start:] {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, p)
		}
	}
	return buf
}

// TopoOps returns op nodes in a valid topological order. Because AddOp only
// references pre-existing operands, creation order is already topological.
func (g *Graph) TopoOps() []NodeID { return g.OpNodes() }

// ensureBLevels computes and caches the b-levels and their maximum.
// Callers must hold g.mu. The b-level recurrence maximizes over an op's
// consumers directly (duplicate consumers cannot change a maximum), so no
// per-op successor set is materialized. The scheduling order itself is
// streamed by ReadyWalker.
func (g *Graph) ensureBLevels() {
	if g.blCache != nil {
		return
	}
	bl := make([]int32, len(g.nodes))
	ops := g.OpNodes()
	maxBL := int32(0)
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		best := int32(0)
		for _, c := range g.consumers[g.opOutput[op]] {
			if bl[c] > best {
				best = bl[c]
			}
		}
		bl[op] = best + 1
		if bl[op] > maxBL {
			maxBL = bl[op]
		}
	}
	g.blCache, g.maxBL = bl, maxBL
}

// BLevelsDense returns the b-levels (longest path to any sink, counting op
// nodes as weight 1) as a flat slice indexed by NodeID (entries for operand
// nodes are zero). The caller owns the returned copy; the mapper indexes
// it directly in its scoring loop instead of hashing NodeIDs.
func (g *Graph) BLevelsDense() []int32 {
	g.mu.Lock()
	g.ensureBLevels()
	out := append([]int32(nil), g.blCache...)
	g.mu.Unlock()
	return out
}

// CriticalPathLength returns the maximum b-level (0 for an empty graph).
func (g *Graph) CriticalPathLength() int {
	g.mu.Lock()
	g.ensureBLevels()
	best := g.maxBL
	g.mu.Unlock()
	return int(best)
}

// Stats summarizes a graph.
type Stats struct {
	Ops          int
	Operands     int
	Inputs       int
	Outputs      int
	MaxArity     int
	CriticalPath int
	ByOp         map[logic.Op]int
	// OpsWithArityOver2 counts op nodes with more than two operands
	// (multi-row-activation ops, the Fig. 6 x-axis).
	OpsWithArityOver2 int
}

// ComputeStats walks the graph once and summarizes it.
func (g *Graph) ComputeStats() Stats {
	s := Stats{ByOp: make(map[logic.Op]int)}
	for id := range g.nodes {
		switch g.nodes[id].kind {
		case KindOperand:
			s.Operands++
		case KindOp:
			s.Ops++
			s.ByOp[g.nodes[id].op]++
			ar := len(g.opInputs[NodeID(id)])
			if ar > s.MaxArity {
				s.MaxArity = ar
			}
			if ar > 2 {
				s.OpsWithArityOver2++
			}
		}
	}
	s.Inputs = len(g.inputs)
	s.Outputs = len(g.outputs)
	s.CriticalPath = g.CriticalPathLength()
	return s
}

// Validate checks structural invariants. Graphs built through the public
// API always pass; transforms use it as a self-check.
func (g *Graph) Validate() error {
	for id := range g.nodes {
		nid := NodeID(id)
		switch g.nodes[id].kind {
		case KindOp:
			ins := g.opInputs[nid]
			op := g.nodes[id].op
			if op.IsUnary() && len(ins) != 1 {
				return fmt.Errorf("op %d (%v) has %d inputs, want 1", id, op, len(ins))
			}
			if !op.IsUnary() && len(ins) < 2 {
				return fmt.Errorf("op %d (%v) has %d inputs, want >=2", id, op, len(ins))
			}
			for _, in := range ins {
				if !g.isOperand(in) {
					return fmt.Errorf("op %d input %d is not an operand", id, in)
				}
				if in >= nid {
					return fmt.Errorf("op %d consumes operand %d created later (cycle risk)", id, in)
				}
			}
			out := g.opOutput[nid]
			if !g.isOperand(out) {
				return fmt.Errorf("op %d has no output operand", id)
			}
			if g.producer[out] != nid {
				return fmt.Errorf("op %d output %d producer mismatch", id, out)
			}
		case KindOperand:
			if p := g.producer[nid]; p != NoNode && !g.isOp(p) {
				return fmt.Errorf("operand %d producer %d is not an op", id, p)
			}
		default:
			return fmt.Errorf("node %d has invalid kind", id)
		}
	}
	for _, out := range g.outputs {
		if !g.isOperand(out) {
			return fmt.Errorf("output %d is not an operand", out)
		}
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	return &Graph{
		nodes:       slices.Clone(g.nodes),
		numOps:      g.numOps,
		opInputs:    cloneLists(g.opInputs),
		opOutput:    slices.Clone(g.opOutput),
		producer:    slices.Clone(g.producer),
		consumers:   cloneLists(g.consumers),
		inputs:      slices.Clone(g.inputs),
		outputs:     slices.Clone(g.outputs),
		outputAlias: slices.Clone(g.outputAlias),
		outPos:      slices.Clone(g.outPos),
		byName:      maps.Clone(g.byName),
		maxT:        g.maxT,
	}
}

// cloneLists deep-copies a per-node list relation.
func cloneLists(ls [][]NodeID) [][]NodeID {
	out := make([][]NodeID, len(ls))
	for i, l := range ls {
		out[i] = slices.Clone(l)
	}
	return out
}
