// Package analytics generates the data-analytics workloads the streaming
// pipeline exists for: bitmap-index query plans (AND/OR/NOT over
// million-row predicate bitmaps, answered by a Streamer into CountSink
// without materializing the match bitmap) and a bit-serial
// filter+aggregate scan (range predicate over a packed value column, SUM
// of the matching values folded by SumBitsSink from predicate-masked
// bit-planes). Both come with deterministic packed data generators in the
// facade's slot-major RunBatchWords layout and word-level host golden
// models, so the streamed COUNT and SUM are checked against exact
// references at any row count.
package analytics

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"sherlock/internal/dfg"
	"sherlock/internal/symword"
)

// ScanConfig describes a bitmap-index query plan over per-row predicate
// bitmaps ("columns"): match = AND(All) ∧ OR(Any) ∧ ¬OR(None). Empty
// groups drop out of the plan.
type ScanConfig struct {
	// Columns is the number of predicate bitmaps the index holds.
	Columns int
	// All lists columns every matching row must set (AND group).
	All []int
	// Any lists columns of which a matching row must set at least one
	// (OR group).
	Any []int
	// None lists columns a matching row must not set (NOT OR group).
	None []int
}

// DefaultScanConfig is an 8-column plan exercising all three groups.
func DefaultScanConfig() ScanConfig {
	return ScanConfig{Columns: 8, All: []int{0, 1}, Any: []int{2, 3, 4}, None: []int{5}}
}

// Validate rejects out-of-range or degenerate plans.
func (c ScanConfig) Validate() error {
	if c.Columns < 1 {
		return fmt.Errorf("analytics: %d columns", c.Columns)
	}
	if len(c.All)+len(c.Any)+len(c.None) == 0 {
		return fmt.Errorf("analytics: empty query plan")
	}
	for _, g := range [][]int{c.All, c.Any, c.None} {
		for _, col := range g {
			if col < 0 || col >= c.Columns {
				return fmt.Errorf("analytics: column %d outside %d columns", col, c.Columns)
			}
		}
	}
	return nil
}

// ColName is the input name of predicate column c.
func ColName(c int) string { return fmt.Sprintf("col%d", c) }

// MatchName is the plan's single output.
const MatchName = "match"

// BuildScan generates the query-plan DFG. Every column is declared as an
// input (index order) even if unused, so the packed layout is independent
// of the plan.
func BuildScan(cfg ScanConfig) (*dfg.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := dfg.NewBuilder()
	cols := make([]dfg.Val, cfg.Columns)
	for i := range cols {
		cols[i] = b.Input(ColName(i))
	}
	var acc dfg.Val
	have := false
	and := func(v dfg.Val) {
		if !have {
			acc, have = v, true
		} else {
			acc = b.And(acc, v)
		}
	}
	for _, col := range cfg.All {
		and(cols[col])
	}
	if len(cfg.Any) > 0 {
		vals := make([]dfg.Val, len(cfg.Any))
		for i, col := range cfg.Any {
			vals[i] = cols[col]
		}
		and(b.OrN(vals...))
	}
	if len(cfg.None) > 0 {
		vals := make([]dfg.Val, len(cfg.None))
		for i, col := range cfg.None {
			vals[i] = cols[col]
		}
		and(b.Not(b.OrN(vals...)))
	}
	b.Output(MatchName, acc)
	return b.Graph(), nil
}

// colDensity shapes column c's bit density so plans see realistic
// selectivities: cycle dense (3/4), medium (1/2), sparse (1/4).
func colDensity(c int) int { return c % 3 }

// fillWords fills dst with a column's deterministic pseudo-random bitmap
// words (splitmix-style stream keyed by seed).
func fillWords(dst []uint64, seed uint64, density int) {
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := range dst {
		w := next()
		switch density {
		case 0:
			w |= next() // ~3/4 ones
		case 2:
			w &= next() // ~1/4 ones
		}
		dst[i] = w
	}
}

// slotCol maps an input name back to its column index.
func slotCol(name, prefix string) (int, error) {
	idx, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
	if err != nil || !strings.HasPrefix(name, prefix) {
		return 0, fmt.Errorf("analytics: unexpected input name %q", name)
	}
	return idx, nil
}

// PackedData builds the slot-major packed input block for rows rows in
// the order of names (the compiled program's InputNames) — the layout
// RunBatchWords and Streamer.Run consume directly. Deterministic in
// (names, rows, seed).
func PackedData(names []string, prefix string, rows int, seed int64) ([]uint64, error) {
	W := (rows + 63) / 64
	in := make([]uint64, len(names)*W)
	for s, name := range names {
		col, err := slotCol(name, prefix)
		if err != nil {
			return nil, err
		}
		fillWords(in[s*W:(s+1)*W], uint64(seed)+0x51ed2700*uint64(col)+1, colDensity(col))
	}
	return in, nil
}

// HostCount is the golden model: the exact match count of the plan over a
// PackedData block, computed with host word ops.
func HostCount(cfg ScanConfig, names []string, in []uint64, rows int) (int64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	W := (rows + 63) / 64
	slot := make(map[int]int, len(names)) // column -> slot
	for s, name := range names {
		col, err := slotCol(name, "col")
		if err != nil {
			return 0, err
		}
		slot[col] = s
	}
	var count int64
	for w := 0; w < W; w++ {
		acc := ^uint64(0)
		for _, col := range cfg.All {
			acc &= in[slot[col]*W+w]
		}
		if len(cfg.Any) > 0 {
			var or uint64
			for _, col := range cfg.Any {
				or |= in[slot[col]*W+w]
			}
			acc &= or
		}
		for _, col := range cfg.None {
			acc &^= in[slot[col]*W+w]
		}
		if w == W-1 {
			if rem := rows % 64; rem != 0 {
				acc &= uint64(1)<<uint(rem) - 1
			}
		}
		count += int64(bits.OnesCount64(acc))
	}
	return count, nil
}

// FilterSumConfig describes the bit-serial filter+aggregate scan: each row
// carries a ValueBits-wide unsigned value (bit-plane inputs val0..), the
// predicate is Low <= value < High, and the aggregate is SUM(value) over
// matching rows. The kernel outputs the match bit plus the
// predicate-masked value planes sum0.., which SumBitsSink folds into the
// exact sum with zero materialization.
type FilterSumConfig struct {
	ValueBits int
	Low, High uint64
}

// DefaultFilterSumConfig is an 8-bit value column with a mid-range band.
func DefaultFilterSumConfig() FilterSumConfig {
	return FilterSumConfig{ValueBits: 8, Low: 64, High: 192}
}

// Validate rejects shapes whose predicate folds to a constant (the DFG
// cannot output constants).
func (c FilterSumConfig) Validate() error {
	if c.ValueBits < 1 || c.ValueBits > 32 {
		return fmt.Errorf("analytics: %d value bits", c.ValueBits)
	}
	max := uint64(1) << uint(c.ValueBits)
	if c.Low == 0 || c.Low >= c.High || c.High >= max {
		return fmt.Errorf("analytics: band [%d,%d) must satisfy 0 < low < high < %d", c.Low, c.High, max)
	}
	return nil
}

// ValuePrefix is the input bit-plane name prefix (val0 = LSB).
const ValuePrefix = "val"

// SumPrefix is the masked-plane output name prefix (sum0 = LSB).
const SumPrefix = "sum"

// BuildFilterSum generates the scan DFG: output "match" plus the
// ValueBits masked planes.
func BuildFilterSum(cfg FilterSumConfig) (*dfg.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := dfg.NewBuilder()
	v := symword.Inputs(b, ValuePrefix, cfg.ValueBits)
	match := b.And(symword.GEConst(b, v, cfg.Low), b.Not(symword.GEConst(b, v, cfg.High)))
	b.Output(MatchName, match)
	for i, bit := range v {
		b.Output(fmt.Sprintf("%s%d", SumPrefix, i), b.And(bit, match))
	}
	return b.Graph(), nil
}

// SumPlanes maps a compiled scan's OutputNames to the SumBitsSink plane
// list: the output indices of sum0..sum{bits-1} in significance order.
// The second result is the index of the match output.
func SumPlanes(outNames []string, bits int) (planes []int, match int, err error) {
	planes = make([]int, bits)
	for i := range planes {
		planes[i] = -1
	}
	match = -1
	for o, name := range outNames {
		if name == MatchName {
			match = o
			continue
		}
		idx, perr := slotCol(name, SumPrefix)
		if perr != nil || idx < 0 || idx >= bits {
			return nil, 0, fmt.Errorf("analytics: unexpected output %q", name)
		}
		planes[idx] = o
	}
	if match < 0 {
		return nil, 0, fmt.Errorf("analytics: no %q output", MatchName)
	}
	for i, o := range planes {
		if o < 0 {
			return nil, 0, fmt.Errorf("analytics: missing output %s%d", SumPrefix, i)
		}
	}
	return planes, match, nil
}

// HostFilterSum is the golden model: exact match count and value sum over
// a PackedData block (value bit-planes in the names' slot order).
func HostFilterSum(cfg FilterSumConfig, names []string, in []uint64, rows int) (count int64, sum uint64, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	W := (rows + 63) / 64
	slot := make(map[int]int, len(names))
	for s, name := range names {
		plane, perr := slotCol(name, ValuePrefix)
		if perr != nil {
			return 0, 0, perr
		}
		slot[plane] = s
	}
	for w := 0; w < W; w++ {
		live := ^uint64(0)
		if w == W-1 {
			if rem := rows % 64; rem != 0 {
				live = uint64(1)<<uint(rem) - 1
			}
		}
		for l := 0; l < 64; l++ {
			if live>>uint(l)&1 == 0 {
				continue
			}
			var v uint64
			for plane := 0; plane < cfg.ValueBits; plane++ {
				v |= in[slot[plane]*W+w] >> uint(l) & 1 << uint(plane)
			}
			if v >= cfg.Low && v < cfg.High {
				count++
				sum += v
			}
		}
	}
	return count, sum, nil
}
