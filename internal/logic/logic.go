// Package logic defines the bulk-bitwise operation vocabulary shared by the
// DFG, the instruction set, the device reliability model, and the simulator.
//
// The target system (Sec. 2.1 of the paper) evaluates column-wise logic via
// scouting reads: (N)AND, (N)OR and X(N)OR are sensed by comparing the
// bit-line resistance of simultaneously activated rows against one or more
// reference resistances. NOT and COPY are implemented in the row buffer /
// by row cloning with CMOS circuitry and never touch a sense reference.
package logic

import "fmt"

// Op identifies a logic operation.
type Op int

// The operation vocabulary. Zero value is Invalid so that accidentally
// uninitialized ops are caught by Valid().
const (
	Invalid Op = iota
	And
	Or
	Xor
	Nand
	Nor
	Xnor
	Not  // row-buffer inversion, single operand
	Copy // row clone, single operand
)

var opNames = map[Op]string{
	And:  "AND",
	Or:   "OR",
	Xor:  "XOR",
	Nand: "NAND",
	Nor:  "NOR",
	Xnor: "XNOR",
	Not:  "NOT",
	Copy: "COPY",
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, s := range opNames { //sherlock:allow rangemap (inverts a one-to-one table; order-insensitive)
		m[s] = op
	}
	return m
}()

// String returns the canonical upper-case mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// ParseOp converts a mnemonic (as printed by String) back to an Op.
func ParseOp(s string) (Op, error) {
	if op, ok := opByName[s]; ok {
		return op, nil
	}
	return Invalid, fmt.Errorf("logic: unknown operation %q", s)
}

// Valid reports whether o is one of the defined operations.
func (o Op) Valid() bool { _, ok := opNames[o]; return ok }

// IsSense reports whether o is realized by a scouting read (multi-row
// activation and sense-amplifier decision), i.e. whether it contributes to
// decision-failure probability. NOT and COPY are CMOS row-buffer operations.
func (o Op) IsSense() bool {
	switch o {
	case And, Or, Xor, Nand, Nor, Xnor:
		return true
	}
	return false
}

// IsUnary reports whether o takes exactly one operand.
func (o Op) IsUnary() bool { return o == Not || o == Copy }

// Associative reports whether chains of o can be flattened into a single
// multi-operand node (the node-substitution transform of Sec. 3.3.3).
// AND/OR extend trivially; XOR extends to multi-input parity, which the
// array senses with multiple references. The inverting forms do not compose
// by flattening (NAND(NAND(a,b),c) != NAND(a,b,c)).
func (o Op) Associative() bool {
	switch o {
	case And, Or, Xor:
		return true
	}
	return false
}

// Inverse returns the complementary operation (AND<->NAND etc.) and whether
// one exists.
func (o Op) Inverse() (Op, bool) {
	switch o {
	case And:
		return Nand, true
	case Nand:
		return And, true
	case Or:
		return Nor, true
	case Nor:
		return Or, true
	case Xor:
		return Xnor, true
	case Xnor:
		return Xor, true
	case Not:
		return Copy, true
	case Copy:
		return Not, true
	}
	return Invalid, false
}

// Eval computes o over the given operand bits. It panics on arity
// violations: unary ops require exactly one operand, sense ops at least two.
func (o Op) Eval(bits ...bool) bool {
	switch o {
	case Not:
		requireArity(o, len(bits), 1)
		return !bits[0]
	case Copy:
		requireArity(o, len(bits), 1)
		return bits[0]
	}
	if len(bits) < 2 {
		panic(fmt.Sprintf("logic: %v requires at least 2 operands, got %d", o, len(bits)))
	}
	switch o {
	case And, Nand:
		acc := true
		for _, b := range bits {
			acc = acc && b
		}
		return acc != (o == Nand)
	case Or, Nor:
		acc := false
		for _, b := range bits {
			acc = acc || b
		}
		return acc != (o == Nor)
	case Xor, Xnor:
		acc := false
		for _, b := range bits {
			acc = acc != b
		}
		return acc != (o == Xnor)
	}
	panic(fmt.Sprintf("logic: Eval of invalid op %v", o))
}

// EvalWords is the SWAR form of Eval: bit l of the result is o applied to
// bit l of every operand word, so one call evaluates 64 independent lanes.
// Arity rules match Eval. Callers holding fewer than 64 live lanes mask the
// result themselves (the inverting forms set the dead high bits).
func (o Op) EvalWords(words ...uint64) uint64 {
	switch o {
	case Not:
		requireArity(o, len(words), 1)
		return ^words[0]
	case Copy:
		requireArity(o, len(words), 1)
		return words[0]
	}
	if len(words) < 2 {
		panic(fmt.Sprintf("logic: %v requires at least 2 operands, got %d", o, len(words)))
	}
	var acc uint64
	switch o {
	case And, Nand:
		acc = ^uint64(0)
		for _, w := range words {
			acc &= w
		}
		if o == Nand {
			acc = ^acc
		}
		return acc
	case Or, Nor:
		for _, w := range words {
			acc |= w
		}
		if o == Nor {
			acc = ^acc
		}
		return acc
	case Xor, Xnor:
		for _, w := range words {
			acc ^= w
		}
		if o == Xnor {
			acc = ^acc
		}
		return acc
	}
	panic(fmt.Sprintf("logic: EvalWords of invalid op %v", o))
}

func requireArity(o Op, got, want int) {
	if got != want {
		panic(fmt.Sprintf("logic: %v requires exactly %d operand, got %d", o, want, got))
	}
}

// SenseOps lists every operation realized through scouting reads, in a
// stable order (useful for tables and sweeps).
func SenseOps() []Op { return []Op{And, Nand, Or, Nor, Xor, Xnor} }
