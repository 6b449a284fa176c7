package dfg

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the graph in Graphviz DOT format in the style of the
// paper's Fig. 3b: operand nodes as orange ellipses, op nodes as blue boxes
// annotated with their b-level in red.
func (g *Graph) WriteDOT(w io.Writer, title string) error {
	bl := g.BLevelsDense()
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", title)
	sb.WriteString("  rankdir=TB;\n")
	for id := range g.nodes {
		nid := NodeID(id)
		switch g.nodes[id].kind {
		case KindOperand:
			shape := "ellipse"
			fill := "orange"
			if g.Producer(nid) == NoNode {
				fill = "moccasin"
			}
			label := g.Name(nid)
			if g.IsOutput(nid) {
				label = g.OutputName(nid) + " (out)"
			}
			fmt.Fprintf(&sb, "  n%d [label=%q shape=%s style=filled fillcolor=%s];\n",
				id, label, shape, fill)
		case KindOp:
			fmt.Fprintf(&sb, "  n%d [label=<%s <font color=\"red\">%d</font>> shape=box style=filled fillcolor=lightblue];\n",
				id, g.OpType(nid), bl[nid])
		}
	}
	for id := range g.nodes {
		nid := NodeID(id)
		if g.nodes[id].kind != KindOp {
			continue
		}
		for _, in := range g.ins(nid) {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", in, id)
		}
		fmt.Fprintf(&sb, "  n%d -> n%d;\n", id, g.OpOutput(nid))
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
