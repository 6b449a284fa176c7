// Package isa defines the CIM instruction set of the target system and its
// textual format (paper Fig. 4):
//
//	Write [0][4,8,12,16][932]
//	Read  [0][1,5,9,13][5]
//	Read  [0][4,8,12,16][933,934] [XOR,AND,OR,XOR]
//	Shift [0] R[3]
//
// A Read of one row loads it into the row buffer; a Read of several rows is
// a scouting (CIM) read carrying one logic operation per listed column. A
// Write programs the row buffer into one row at the listed columns. Shift
// rotates the row buffer. Not (our spelling of the row-buffer CMOS
// inversion the paper describes in Sec. 2.1) inverts the row buffer at the
// listed columns.
//
// Host-supplied input data enters through Write instructions with bindings:
// "Write [0][4,8][932] <x0,x1>" loads kernel inputs x0 and x1 from the bus
// into columns 4 and 8 of row 932.
package isa

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sherlock/internal/logic"
)

// Kind discriminates instruction classes.
type Kind int

// Instruction kinds.
const (
	KindRead Kind = iota + 1
	KindWrite
	KindShift
	KindNot
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "Read"
	case KindWrite:
		return "Write"
	case KindShift:
		return "Shift"
	case KindNot:
		return "Not"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Instruction is one operation of the generated code.
type Instruction struct {
	Kind  Kind
	Array int
	Cols  []int // sorted ascending, unique
	Rows  []int // Read: activated rows; Write: single destination row

	// Ops holds the per-column logic operation of a scouting read
	// (len(Ops) == len(Cols)); empty for plain reads.
	Ops []logic.Op

	// Shift parameters.
	Right   bool
	ShiftBy int

	// Bindings names the kernel inputs loaded from the host bus by a
	// host write, one per column; nil for row-buffer write-backs.
	Bindings []string

	// HasSrcArray marks a cross-array write: the data comes from
	// SrcArray's row buffer over the inter-array bus rather than from this
	// array's own buffer. Rendered as a "@[n]" suffix.
	HasSrcArray bool
	SrcArray    int
}

// IsCIMRead reports whether the instruction is a scouting read (performs
// logic and therefore contributes to decision-failure probability).
func (in Instruction) IsCIMRead() bool { return in.Kind == KindRead && len(in.Rows) >= 2 }

// IsHostWrite reports whether the instruction loads input data from the
// host bus.
func (in Instruction) IsHostWrite() bool { return in.Kind == KindWrite && in.Bindings != nil }

// Source returns the array whose row buffer a write-back reads: SrcArray for
// a cross-array write, the instruction's own array otherwise.
func (in Instruction) Source() int {
	if in.HasSrcArray {
		return in.SrcArray
	}
	return in.Array
}

// Validate checks the structural invariants of one instruction.
func (in Instruction) Validate() error {
	if in.Array < 0 {
		return fmt.Errorf("isa: negative array id %d", in.Array)
	}
	switch in.Kind {
	case KindRead:
		if len(in.Cols) == 0 || len(in.Rows) == 0 {
			return fmt.Errorf("isa: read needs columns and rows")
		}
		if len(in.Rows) == 1 && len(in.Ops) != 0 {
			return fmt.Errorf("isa: plain read must not carry ops")
		}
		if len(in.Rows) >= 2 {
			if len(in.Ops) != len(in.Cols) {
				return fmt.Errorf("isa: CIM read has %d ops for %d columns", len(in.Ops), len(in.Cols))
			}
			for _, op := range in.Ops {
				if !op.IsSense() {
					return fmt.Errorf("isa: %v is not a sense operation", op)
				}
			}
		}
		if err := checkUniqueSorted("row", in.Rows); err != nil {
			return err
		}
	case KindWrite:
		if len(in.Cols) == 0 || len(in.Rows) != 1 {
			return fmt.Errorf("isa: write needs columns and exactly one row")
		}
		if len(in.Ops) != 0 {
			return fmt.Errorf("isa: write must not carry ops")
		}
		if in.Bindings != nil && len(in.Bindings) != len(in.Cols) {
			return fmt.Errorf("isa: host write has %d bindings for %d columns", len(in.Bindings), len(in.Cols))
		}
		if in.HasSrcArray {
			if in.Bindings != nil {
				return fmt.Errorf("isa: cross-array write cannot also bind host inputs")
			}
			if in.SrcArray < 0 {
				return fmt.Errorf("isa: negative source array %d", in.SrcArray)
			}
			if in.SrcArray == in.Array {
				return fmt.Errorf("isa: cross-array write from own array %d", in.Array)
			}
		}
	case KindShift:
		if in.ShiftBy <= 0 {
			return fmt.Errorf("isa: shift distance %d must be positive", in.ShiftBy)
		}
		if len(in.Cols) != 0 || len(in.Rows) != 0 {
			return fmt.Errorf("isa: shift addresses the whole row buffer")
		}
	case KindNot:
		if len(in.Cols) == 0 {
			return fmt.Errorf("isa: not needs columns")
		}
		if len(in.Rows) != 0 || len(in.Ops) != 0 {
			return fmt.Errorf("isa: not addresses the row buffer only")
		}
	default:
		return fmt.Errorf("isa: invalid kind %v", in.Kind)
	}
	if in.Kind != KindShift {
		if err := checkUniqueSorted("column", in.Cols); err != nil {
			return err
		}
	}
	return nil
}

func checkUniqueSorted(what string, xs []int) error {
	for i, x := range xs {
		if x < 0 {
			return fmt.Errorf("isa: negative %s %d", what, x)
		}
		if i > 0 && xs[i-1] >= x {
			return fmt.Errorf("isa: %s list not sorted/unique at %d", what, x)
		}
	}
	return nil
}

// String renders the instruction in the paper's format.
func (in Instruction) String() string {
	var sb strings.Builder
	switch in.Kind {
	case KindShift:
		dir := "L"
		if in.Right {
			dir = "R"
		}
		fmt.Fprintf(&sb, "Shift [%d] %s[%d]", in.Array, dir, in.ShiftBy)
	case KindNot:
		fmt.Fprintf(&sb, "Not [%d][%s]", in.Array, joinInts(in.Cols))
	case KindRead:
		fmt.Fprintf(&sb, "Read [%d][%s][%s]", in.Array, joinInts(in.Cols), joinInts(in.Rows))
		if len(in.Ops) > 0 {
			names := make([]string, len(in.Ops))
			for i, op := range in.Ops {
				names[i] = op.String()
			}
			fmt.Fprintf(&sb, " [%s]", strings.Join(names, ","))
		}
	case KindWrite:
		fmt.Fprintf(&sb, "Write [%d][%s][%d]", in.Array, joinInts(in.Cols), in.Rows[0])
		if in.Bindings != nil {
			fmt.Fprintf(&sb, " <%s>", strings.Join(in.Bindings, ","))
		}
		if in.HasSrcArray {
			fmt.Fprintf(&sb, " @[%d]", in.SrcArray)
		}
	}
	return sb.String()
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// Parse decodes one instruction line (as produced by String). Whitespace
// inside bracket lists is tolerated, matching the paper's own examples.
func Parse(line string) (Instruction, error) {
	line = strings.TrimSpace(line)
	fields := strings.SplitN(line, " ", 2)
	if len(fields) != 2 {
		return Instruction{}, fmt.Errorf("isa: malformed instruction %q", line)
	}
	rest := strings.TrimSpace(fields[1])
	var in Instruction
	switch strings.ToLower(fields[0]) {
	case "read":
		in.Kind = KindRead
	case "write":
		in.Kind = KindWrite
	case "shift":
		in.Kind = KindShift
	case "not":
		in.Kind = KindNot
	default:
		return Instruction{}, fmt.Errorf("isa: unknown mnemonic %q", fields[0])
	}

	if in.Kind == KindShift {
		// "[array] R[dist]" or "[array] L[dist]"
		var arr int
		rest2, err := takeBracketInt(rest, &arr)
		if err != nil {
			return Instruction{}, err
		}
		in.Array = arr
		rest2 = strings.TrimSpace(rest2)
		if len(rest2) < 2 {
			return Instruction{}, fmt.Errorf("isa: malformed shift %q", line)
		}
		switch rest2[0] {
		case 'R', 'r':
			in.Right = true
		case 'L', 'l':
			in.Right = false
		default:
			return Instruction{}, fmt.Errorf("isa: bad shift direction %q", rest2)
		}
		var dist int
		if _, err := takeBracketInt(rest2[1:], &dist); err != nil {
			return Instruction{}, err
		}
		in.ShiftBy = dist
		if err := in.Validate(); err != nil {
			return Instruction{}, err
		}
		return in, nil
	}

	groups, trailer, err := bracketGroups(rest)
	if err != nil {
		return Instruction{}, err
	}
	need := map[Kind]int{KindRead: 3, KindWrite: 3, KindNot: 2}[in.Kind]
	hasOps := in.Kind == KindRead && len(groups) == 4
	if len(groups) != need && !hasOps {
		return Instruction{}, fmt.Errorf("isa: %v expects %d bracket groups, got %d", in.Kind, need, len(groups))
	}
	if in.Array, err = parseSingleInt(groups[0]); err != nil {
		return Instruction{}, err
	}
	if in.Cols, err = parseIntList(groups[1]); err != nil {
		return Instruction{}, err
	}
	if in.Kind != KindNot {
		if in.Rows, err = parseIntList(groups[2]); err != nil {
			return Instruction{}, err
		}
	}
	if hasOps {
		for _, name := range splitCSV(groups[3]) {
			op, err := logic.ParseOp(name)
			if err != nil {
				return Instruction{}, err
			}
			in.Ops = append(in.Ops, op)
		}
	}
	if in.Kind == KindWrite && strings.HasPrefix(trailer, "@") {
		var src int
		rest2, err := takeBracketInt(trailer[1:], &src)
		if err != nil {
			return Instruction{}, err
		}
		if strings.TrimSpace(rest2) != "" {
			return Instruction{}, fmt.Errorf("isa: trailing garbage %q", rest2)
		}
		in.HasSrcArray, in.SrcArray = true, src
	} else if in.Kind == KindWrite && strings.HasPrefix(trailer, "<") && strings.HasSuffix(trailer, ">") {
		in.Bindings = splitCSV(trailer[1 : len(trailer)-1])
	} else if trailer != "" {
		return Instruction{}, fmt.Errorf("isa: trailing garbage %q", trailer)
	}
	if err := in.Validate(); err != nil {
		return Instruction{}, err
	}
	return in, nil
}

func takeBracketInt(s string, out *int) (string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") {
		return "", fmt.Errorf("isa: expected '[' in %q", s)
	}
	end := strings.IndexByte(s, ']')
	if end < 0 {
		return "", fmt.Errorf("isa: unterminated bracket in %q", s)
	}
	v, err := strconv.Atoi(strings.TrimSpace(s[1:end]))
	if err != nil {
		return "", fmt.Errorf("isa: bad integer in %q: %v", s[:end+1], err)
	}
	*out = v
	return s[end+1:], nil
}

// bracketGroups splits "[a][b,c][d] rest" into its bracket contents plus
// any trailer.
func bracketGroups(s string) (groups []string, trailer string, err error) {
	s = strings.TrimSpace(s)
	for strings.HasPrefix(s, "[") {
		end := strings.IndexByte(s, ']')
		if end < 0 {
			return nil, "", fmt.Errorf("isa: unterminated bracket in %q", s)
		}
		groups = append(groups, s[1:end])
		s = strings.TrimSpace(s[end+1:])
	}
	return groups, s, nil
}

func parseSingleInt(s string) (int, error) {
	return strconv.Atoi(strings.TrimSpace(s))
}

func parseIntList(s string) ([]int, error) {
	parts := splitCSV(s)
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("isa: bad integer %q", p)
		}
		out[i] = v
	}
	return out, nil
}

func splitCSV(s string) []string {
	raw := strings.Split(s, ",")
	out := make([]string, 0, len(raw))
	for _, p := range raw {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Program is an ordered instruction sequence.
type Program []Instruction

// Validate checks every instruction.
func (p Program) Validate() error {
	for i, in := range p {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("instruction %d (%s): %w", i, in, err)
		}
	}
	return nil
}

// String renders the program one instruction per line.
func (p Program) String() string {
	var sb strings.Builder
	for _, in := range p {
		sb.WriteString(in.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ParseProgram decodes a multi-line program; blank lines and lines starting
// with '#' are skipped.
func ParseProgram(text string) (Program, error) {
	var p Program
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		in, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		p = append(p, in)
	}
	return p, nil
}

// Bindings returns the host-write input names the program consumes, in
// first-use order. This is the canonical slot order for bulk execution:
// sim.Predecode assigns input slots by it, and the facade packs batch
// inputs in it.
func (p Program) Bindings() []string {
	seen := make(map[string]bool)
	var names []string
	for _, in := range p {
		for _, b := range in.Bindings {
			if !seen[b] {
				seen[b] = true
				names = append(names, b)
			}
		}
	}
	return names
}

// Stats summarizes a program for reports and the reliability model.
type Stats struct {
	Total      int
	Reads      int // plain row-buffer loads
	CIMReads   int // scouting reads
	Writes     int // row-buffer write-backs
	HostWrites int
	Shifts     int
	Nots       int
	// SenseEvents counts individual column-level sense decisions per
	// (op, activated-row-count) class; this feeds P_app directly.
	SenseEvents map[SenseClass]int
	MaxRows     int // widest multi-row activation used
}

// SenseClass is one (operation, simultaneous rows) reliability class.
type SenseClass struct {
	Op   logic.Op
	Rows int
}

// ComputeStats tallies the program.
func (p Program) ComputeStats() Stats {
	s := Stats{SenseEvents: make(map[SenseClass]int)}
	s.Total = len(p)
	for _, in := range p {
		switch in.Kind {
		case KindRead:
			if in.IsCIMRead() {
				s.CIMReads++
				if len(in.Rows) > s.MaxRows {
					s.MaxRows = len(in.Rows)
				}
				for _, op := range in.Ops {
					s.SenseEvents[SenseClass{Op: op, Rows: len(in.Rows)}]++
				}
			} else {
				s.Reads++
			}
		case KindWrite:
			if in.IsHostWrite() {
				s.HostWrites++
			} else {
				s.Writes++
			}
		case KindShift:
			s.Shifts++
		case KindNot:
			s.Nots++
		}
	}
	return s
}

// SenseClasses returns the stats' sense classes in a stable order.
func (s Stats) SenseClasses() []SenseClass {
	out := make([]SenseClass, 0, len(s.SenseEvents))
	for c := range s.SenseEvents { //sherlock:allow rangemap (sorted below)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		return out[i].Rows < out[j].Rows
	})
	return out
}
