package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"sherlock/internal/device"
	"sherlock/internal/layout"
)

// WordLanes is the lane width of one block word: bit l of a word carries
// lane l, so one word holds 64 independent input vectors.
const WordLanes = 64

// DefaultBlockWords is the lane-block width used by callers that want more
// data per decoded pass than one word: 4 words = 256 lanes.
const DefaultBlockWords = 4

// ExecMachine executes one pre-decoded program over a lane BLOCK of up to
// BlockWords()*64 independent input vectors per pass. State is flat and
// cell-major at the pass's width: with A = activeWords = ceil(lanes/64),
// cell (or row-buffer bit) offset k occupies words [k*A, k*A+A), word b
// carrying lanes 64b..64b+63. A wide machine running few lanes therefore
// touches exactly the memory a narrow machine would, and no more cache
// lines or pages. The layout changes with the lane count, which is safe
// for the same reason Reset is cheap (below). Dead lanes carry garbage;
// readout masks them.
//
// There are no defined masks: definedness was discharged at decode time,
// which is what makes Reset O(1) in the cell count — stale cell payloads
// cannot leak because every read the program performs is dominated by a
// same-run write (Predecode proved it).
type ExecMachine struct {
	e     *Exec
	block int // B: the widest pass, in words

	lanes       int
	activeWords int
	lastMask    uint64 // live-lane mask of the last active word

	// cells and buf hold stateWords words per cell (row-buffer bit): the
	// widest pass run so far, so a wide machine that only serves narrow
	// passes only holds narrow state.
	stateWords int
	cells      []uint64 // numCells * stateWords, stride activeWords
	buf        []uint64 // numBuf * stateWords, stride activeWords
	in         []uint64 // input scratch, NumSlots * B; cleared by Reset

	faults     *execFaultModel
	fm         execFaultModel
	flipCounts []int // per-lane injected-fault tallies, B*64 entries
}

// NewMachine builds an executor with a lane block of blockWords words
// (1..; DefaultBlockWords is the facade's choice), initially running all
// blockWords*64 lanes.
func (e *Exec) NewMachine(blockWords int) *ExecMachine {
	m := e.newMachine(blockWords)
	m.Reset(blockWords * WordLanes)
	return m
}

// newMachine is NewMachine with no lane count set and no cell state yet:
// the first setLanes sizes the state to that pass.
func (e *Exec) newMachine(blockWords int) *ExecMachine {
	if blockWords < 1 {
		panic(fmt.Sprintf("sim: lane block of %d words", blockWords))
	}
	return &ExecMachine{
		e:          e,
		block:      blockWords,
		in:         make([]uint64, len(e.inputNames)*blockWords),
		flipCounts: make([]int, blockWords*WordLanes),
	}
}

// BlockWords returns B, the lane-block width in words.
func (m *ExecMachine) BlockWords() int { return m.block }

// MaxLanes returns the block's lane capacity.
func (m *ExecMachine) MaxLanes() int { return m.block * WordLanes }

// Lanes returns the active lane count.
func (m *ExecMachine) Lanes() int { return m.lanes }

// Reset prepares the machine for a fresh pass with a new lane count,
// reusing every allocation (cell state grows only for a pass wider than
// any before). Fault state and the input scratch clear; cell
// payloads stay (the decoded program cannot observe them).
func (m *ExecMachine) Reset(lanes int) {
	m.setLanes(lanes)
	clear(m.flipCounts)
	clear(m.in)
}

// setLanes retargets the active-lane geometry without Reset's scratch
// clears. The streaming pipeline uses it between chunks: pack overwrites
// every input slot's active words before Run, and fault injection is never
// armed on streamed machines, so the clears would be pure per-chunk
// overhead (for wide blocks, tens of kilobytes per chunk).
func (m *ExecMachine) setLanes(lanes int) {
	if lanes < 1 || lanes > m.MaxLanes() {
		panic(fmt.Sprintf("sim: lane count %d outside [1,%d]", lanes, m.MaxLanes()))
	}
	m.lanes = lanes
	m.activeWords = (lanes + WordLanes - 1) / WordLanes
	m.lastMask = ^uint64(0) >> uint(m.activeWords*WordLanes-lanes)
	m.faults = nil
	if m.activeWords > m.stateWords {
		m.stateWords = m.activeWords
		m.cells = make([]uint64, m.e.numCells*m.stateWords)
		m.buf = make([]uint64, m.e.numBuf*m.stateWords)
	}
}

// MaskWord returns the live-lane mask of block word b (bit l set iff lane
// 64b+l is active); words at or past the active count mask to zero.
func (m *ExecMachine) MaskWord(b int) uint64 {
	if b < 0 || b >= m.activeWords {
		return 0
	}
	if b == m.activeWords-1 {
		return m.lastMask
	}
	return ^uint64(0)
}

// lanesOf returns how many lanes of block word b are live.
func (m *ExecMachine) lanesOf(b int) int {
	if b == m.activeWords-1 {
		return m.lanes - b*WordLanes
	}
	return WordLanes
}

// InputBlock exposes the machine's slot-major input scratch: word
// [slot*BlockWords()+b] carries lanes 64b..64b+63 of that input slot. Reset
// zeroes it; callers set bits and pass it to Run.
func (m *ExecMachine) InputBlock() []uint64 { return m.in }

// EnableFaultInjection arms the geometric-skip sampler for the next Run.
// The per-class P_DF values are resolved once here instead of once per
// column. The (op, rows)-class skip streams share one RNG, consumed in
// (instruction, column, block word) order — same seed, same fault pattern,
// bit for bit, at any block width.
func (m *ExecMachine) EnableFaultInjection(p device.Params, seed int64) {
	f := &m.fm
	n := len(m.e.classes)
	if cap(f.pdf) < n {
		f.pdf = make([]float64, n)
		f.rem = make([]int64, n)
		f.has = make([]bool, n)
	}
	f.pdf, f.rem, f.has = f.pdf[:n], f.rem[:n], f.has[:n]
	for i, cls := range m.e.classes {
		f.pdf[i] = p.DecisionFailure(cls.Op, cls.Rows)
	}
	clear(f.has)
	f.rng = rand.New(rand.NewSource(seed))
	m.faults = f
}

// FaultCount reports how many sense decisions were flipped in one lane.
func (m *ExecMachine) FaultCount(lane int) int {
	if lane < 0 || lane >= m.lanes {
		panic(fmt.Sprintf("sim: lane %d outside [0,%d)", lane, m.lanes))
	}
	return m.flipCounts[lane]
}

// TotalFaults reports the flips injected across the active lanes.
func (m *ExecMachine) TotalFaults() int {
	total := 0
	for _, c := range m.flipCounts[:m.lanes] {
		total += c
	}
	return total
}

func (m *ExecMachine) countFlips(b int, w uint64) {
	for w != 0 {
		m.flipCounts[b*WordLanes+bits.TrailingZeros64(w)]++
		w &= w - 1
	}
}

// Run executes the decoded program once over the active lanes. in is a
// slot-major input block (see InputBlock); every slot must be populated —
// Run performs no name resolution. RunMap is the checked, name-keyed entry.
// The only runtime failure mode left is a malformed input block; program
// errors were all discharged by Predecode.
func (m *ExecMachine) Run(in []uint64) error {
	e := m.e
	B := m.block
	if len(in) < len(e.inputNames)*B {
		return fmt.Errorf("sim: input block has %d words, need %d", len(in), len(e.inputNames)*B)
	}
	aw := m.activeWords
	cells, buf := m.cells, m.buf
	srcs, dsts := e.srcs, e.dsts
	for oi := range e.ops {
		op := &e.ops[oi]
		switch op.kind {
		case uopFoldAnd, uopFoldOr, uopFoldXor:
			// Scouting reads activate at least two rows: the first pair
			// combines straight into the row-buffer block, further rows fold
			// in place. Sources are resliced to len(dst) to drop bounds checks.
			rows := e.rowOffs[op.rows0:op.rows1]
			r0, r1, rest := int(rows[0])*aw, int(rows[1])*aw, rows[2:]
			for i := op.p0; i < op.p1; i++ {
				base, dst := int(srcs[i])*aw, buf[int(dsts[i])*aw:][:aw]
				x, y := cells[base+r0:][:len(dst)], cells[base+r1:][:len(dst)]
				switch op.kind {
				case uopFoldAnd:
					for b := range dst {
						dst[b] = x[b] & y[b]
					}
					for _, r := range rest {
						z := cells[base+int(r)*aw:][:len(dst)]
						for b := range dst {
							dst[b] &= z[b]
						}
					}
				case uopFoldOr:
					for b := range dst {
						dst[b] = x[b] | y[b]
					}
					for _, r := range rest {
						z := cells[base+int(r)*aw:][:len(dst)]
						for b := range dst {
							dst[b] |= z[b]
						}
					}
				default:
					for b := range dst {
						dst[b] = x[b] ^ y[b]
					}
					for _, r := range rest {
						z := cells[base+int(r)*aw:][:len(dst)]
						for b := range dst {
							dst[b] ^= z[b]
						}
					}
				}
				if op.inv {
					for b := range dst {
						dst[b] = ^dst[b]
					}
				}
				if m.faults != nil {
					for b := range dst {
						if w := m.faults.flips(int(op.class), m.lanesOf(b)); w != 0 {
							dst[b] ^= w
							m.countFlips(b, w)
						}
					}
				}
			}
		case uopCopy:
			for i := op.p0; i < op.p1; i++ {
				so, do := int(srcs[i])*aw, int(dsts[i])*aw
				copy(buf[do:do+aw], cells[so:so+aw])
			}
		case uopHostWrite:
			for i := op.p0; i < op.p1; i++ {
				so, do := int(srcs[i])*B, int(dsts[i])*aw
				copy(cells[do:do+aw], in[so:so+aw])
			}
		case uopBufWrite:
			for i := op.p0; i < op.p1; i++ {
				so, do := int(srcs[i])*aw, int(dsts[i])*aw
				copy(cells[do:do+aw], buf[so:so+aw])
			}
		case uopNot:
			for i := op.p0; i < op.p1; i++ {
				dst := buf[int(dsts[i])*aw:][:aw]
				for b := range dst {
					dst[b] = ^dst[b]
				}
			}
		case uopShift:
			m.shift(int(op.array), int(op.dist))
		}
	}
	return nil
}

// shift moves whole row-buffer columns of one array by memmove: column c's
// block of active words relocates to column c+dist, vacated columns zero.
func (m *ExecMachine) shift(array, dist int) {
	aw := m.activeWords
	n := m.e.bufCols
	region := m.buf[array*n*aw : (array+1)*n*aw]
	d := dist
	if d < 0 {
		d = -d
	}
	if d >= n {
		clear(region)
		return
	}
	w := d * aw
	if dist > 0 {
		copy(region[w:], region[:len(region)-w])
		clear(region[:w])
	} else {
		copy(region[:len(region)-w], region[w:])
		clear(region[len(region)-w:])
	}
}

// RunMap is Run with name-keyed input words (bit l = lane l's value): it
// performs the unbound-input check at the point of use, reporting the first
// instruction that needs a missing name with the reference interpreter's
// message. One word addresses at most 64 lanes, so the machine must be
// Reset to <= 64.
func (m *ExecMachine) RunMap(inputs map[string]uint64) error {
	if m.lanes > WordLanes {
		panic(fmt.Sprintf("sim: RunMap addresses %d lanes through single words", m.lanes))
	}
	e := m.e
	for _, u := range e.bindUses {
		if _, ok := inputs[e.inputNames[u.slot]]; !ok {
			in := e.walk.Prog[u.instr]
			return fmt.Errorf("sim: instruction %d (%s): unbound input %q", u.instr, in, e.inputNames[u.slot])
		}
	}
	clear(m.in)
	// Every name lands in its own slot word, so order is immaterial.
	for name, w := range inputs { //sherlock:allow rangemap
		if s, ok := e.walk.Slots[name]; ok {
			m.in[s*m.block] = w
		}
	}
	return m.Run(m.in)
}

// ReadOutWord returns block word b of the stored lanes at a cell (bit l =
// lane 64b+l's value), failing when the cell was never written.
func (m *ExecMachine) ReadOutWord(p layout.Place, b int) (uint64, error) {
	if b < 0 || b >= m.activeWords {
		return 0, fmt.Errorf("sim: readout word %d outside %d active words", b, m.activeWords)
	}
	base, err := m.cellBlock(p)
	if err != nil {
		return 0, err
	}
	return m.cells[base+b] & m.MaskWord(b), nil
}

// OutWords is the bulk counterpart of ReadOutWord for streaming readout:
// it copies every active block word of the stored lanes at p into dst
// (word b = lanes 64b..64b+63, dead lanes of the last word masked to
// zero) and returns how many words it wrote. The bounds and definedness
// checks run once per call instead of once per word.
func (m *ExecMachine) OutWords(p layout.Place, dst []uint64) (int, error) {
	aw := m.activeWords
	if len(dst) < aw {
		return 0, fmt.Errorf("sim: readout buffer has %d words, need %d", len(dst), aw)
	}
	base, err := m.cellBlock(p)
	if err != nil {
		return 0, err
	}
	copy(dst[:aw], m.cells[base:base+aw])
	dst[aw-1] &= m.lastMask
	return aw, nil
}

// cellBlock returns the offset of p's lane block in m.cells, failing when
// the program leaves p undefined. Outside the decoded space nothing was
// ever written, so the target bound check folds into the same answer.
func (m *ExecMachine) cellBlock(p layout.Place) (int, error) {
	w := m.e.walk
	off, ok := w.CellAt(p)
	if !ok || !w.CellDef[off] {
		return 0, fmt.Errorf("sim: readout of undefined cell %v", p)
	}
	return off * m.activeWords, nil
}

// execFaultModel injects sense-decision faults with a geometric-skip
// (binomial-thinning) sampler. Decisions of one (op, rows) reliability class
// form a stream in execution order; instead of one Bernoulli draw per
// decision, the model draws the gap to the next flip from Geom(P_DF) and
// skips that many decisions. The two processes are identically distributed,
// but at P_DF ~ 1e-6 the geometric form consults the RNG roughly once per
// million decisions instead of a million times. Class -> P_DF and class ->
// skip state are dense arrays indexed by the decode-time class table, and
// P_DF resolves once per EnableFaultInjection instead of once per column.
type execFaultModel struct {
	rng *rand.Rand
	pdf []float64
	rem []int64
	has []bool
}

// flips returns the fault word for `lanes` decisions of one sense class:
// the decisions are consumed from the class's skip stream, and bit l is set
// iff lane l's decision flips.
func (f *execFaultModel) flips(cls, lanes int) uint64 {
	pdf := f.pdf[cls]
	if pdf <= 0 {
		return 0
	}
	rem := f.rem[cls]
	if !f.has[cls] {
		rem = geomGap(f.rng, pdf)
		f.has[cls] = true
	}
	var w uint64
	for rem < int64(lanes) {
		w |= uint64(1) << uint(rem)
		rem += 1 + geomGap(f.rng, pdf)
		if rem > maxGap {
			rem = maxGap
		}
	}
	f.rem[cls] = rem - int64(lanes)
	return w
}

// maxGap caps geometric gaps so skip arithmetic cannot overflow; at any
// realistic decision count a gap this large means "never flips".
const maxGap = int64(1) << 60

// geomGap draws the number of un-flipped decisions preceding the next flip.
func geomGap(rng *rand.Rand, p float64) int64 {
	if p >= 1 {
		return 0
	}
	// Inversion sampling: floor(log(1-U)/log(1-p)) ~ Geom(p), U in [0,1).
	g := math.Log1p(-rng.Float64()) / math.Log1p(-p)
	if !(g < float64(maxGap)) { // also catches NaN/Inf
		return maxGap
	}
	return int64(g)
}
