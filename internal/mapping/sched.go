package mapping

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"sync"

	"sherlock/internal/isa"
	"sherlock/internal/logic"
	"sherlock/internal/readyq"
)

// MergeInstructions implements the instruction-merging optimization of
// Sec. 3.3.3: instructions in different columns that activate the same rows
// fuse into one instruction carrying a per-column operation list.
//
// Scheduling is hazard-gated ready dispatch, not a strict level barrier.
// Two passes over the dependence structure (cells and per-column row-buffer
// bits as resources; shifts touch their whole array's buffer) bound each
// instruction's dispatch window:
//
//   - a forward pass assigns the earliest level at which its last RAW/WAW/
//     WAR hazard has retired (its ready time), and
//   - a backward pass assigns the minimum ready time over its hazard
//     successors (its deadline).
//
// An instruction may issue at any time in [ready, deadline); within that
// slack it can fuse with a compatible group that became ready earlier:
//
//   - scouting reads with identical array and row set,
//   - plain reads with identical array and row,
//   - writes with identical array, row, and data source,
//   - row-buffer NOTs on the same array,
//
// provided the group's columns stay disjoint. Instructions whose slack does
// not reach an existing group open a new one at their own ready time, so
// every same-level merge still happens and cross-level fusion only ever
// removes further instructions. Merged groups are dispatched through a
// bitmap ready queue (internal/readyq) keyed by issue time; group order
// within one time reproduces the lexicographic order of the historical
// string keys.
//
// It returns the merged program and the number of instructions eliminated.
//
// The pass runs on dense data structures throughout: hazard state lives in
// flat arrays indexed by interned resource IDs (see isa.Space) with
// per-array shift summaries making whole-buffer shifts O(1) instead of
// O(columns), merge signatures are comparable structs bucketed by hash, and
// all scratch is pooled — one call allocates only the output program.
func MergeInstructions(p isa.Program) (isa.Program, int) {
	if len(p) == 0 {
		return p, 0
	}
	space := p.ResourceSpace()

	ms := mergePool.Get().(*mergeScratch)
	defer mergePool.Put(ms)
	ms.levels = grow(ms.levels, len(p))
	ms.slack = grow(ms.slack, len(p))

	h := hazardPool.Get().(*hazardScratch)
	h.begin(space.Size(), space.Arrays)
	maxLevel := forwardLevels(p, space, h, ms.levels)
	h.begin(space.Size(), space.Arrays)
	backwardSlack(p, space, h, ms.levels, ms.slack)
	hazardPool.Put(h)

	ms.beginGroups(len(p), space)
	for i := range p {
		in := &p[i]
		if in.Kind == isa.KindShift {
			// Shifts never merge: a private group, bypassing the lookup.
			sid := int32(len(ms.sigs))
			ms.sigs = append(ms.sigs, mergeSig{kind: isa.KindShift, shiftIdx: int32(i)})
			ms.newGroup(sid, nil, int32(i), ms.levels[i], noGroupKey)
			continue
		}
		sig := makeSig(in, i)
		// Intern the signature once (one wide-key map op per instruction),
		// then probe issue times from the instruction's own ready level
		// upward with cheap word-keyed lookups: at most one group exists
		// per (signature, time) — same-class instructions are mutually
		// column-disjoint and a delayed joiner whose columns a class member
		// needs is always cut off by its own deadline first. The probe
		// window bounds how far an instruction chases a fusion partner
		// into its slack; beyond it a new group opens at its own level.
		sid, ok := ms.sigID[sig]
		if !ok {
			sid = int32(len(ms.sigs))
			ms.sigs = append(ms.sigs, sig)
			ms.sigID[sig] = sid
		}
		base := uint64(sid) << 32
		L := ms.levels[i]
		maxT := ms.slack[i] - 1
		if maxT > L+mergeProbeWindow {
			maxT = L + mergeProbeWindow
		}
		gid := int32(-1)
		for t := L; t <= maxT; t++ {
			id, ok := ms.groupAt[base|uint64(uint32(t))]
			if !ok {
				continue
			}
			g := &ms.groups[id]
			if in.Kind == isa.KindRead && !slices.Equal(in.Rows, g.rows) {
				continue // FNV collision: same hash, different row set
			}
			if ms.colConflict(id, in, space) {
				continue // fail safe; see the birth argument above
			}
			gid = id
			break
		}
		if gid < 0 {
			gid = ms.newGroup(sid, in.Rows, int32(i), L, base|uint64(uint32(L)))
		} else {
			g := &ms.groups[gid]
			ms.memberNext[g.tail] = int32(i)
			ms.memberNext[i] = -1
			g.tail = int32(i)
			g.count++
		}
		ms.stampCols(gid, in, space)
	}

	// Dispatch groups by issue time through the bitmap ready queue. Every
	// group emits exactly one instruction (or its members verbatim through
	// the fail safe, which never fires in practice), so the output size is
	// known here.
	out := make(isa.Program, 0, len(ms.groups))
	q := readyq.Get(len(ms.groups), int(maxLevel)+1)
	for id := range ms.groups {
		q.Push(int32(id), ms.groups[id].time)
	}
	for q.Len() > 0 {
		_, t, _ := q.Min()
		ms.order = ms.order[:0]
		for {
			id, pt, ok := q.Min()
			if !ok || pt != t {
				break
			}
			q.PopMin()
			ms.order = append(ms.order, id)
		}
		slices.SortFunc(ms.order, func(a, b int32) int {
			ga, gb := &ms.groups[a], &ms.groups[b]
			return cmpSigRows(&ms.sigs[ga.sig], ga.rows, &ms.sigs[gb.sig], gb.rows)
		})
		for _, gid := range ms.order {
			g := &ms.groups[gid]
			ms.members = ms.members[:0]
			for m := g.head; m >= 0; m = ms.memberNext[m] {
				ms.members = append(ms.members, m)
			}
			out = ms.appendMerged(out, p, ms.members)
		}
	}
	readyq.Put(q)
	return out, len(p) - len(out)
}

// mergeSig is the comparable bucket key replacing the historical
// "R/%d/%s"-style strings. Reads discriminate on the hashed row set (the
// astronomically unlikely hash collision is split by comparing the actual
// row lists within a chain), writes on destination row and data source,
// shifts on their own index so they never merge.
type mergeSig struct {
	kind     isa.Kind
	array    int32
	row      int32  // writes: destination row
	src      int32  // writes: srcBuf, srcHost, or the source array id
	rowsLen  int32  // reads: number of activated rows
	rowsHash uint64 // reads: FNV-1a over the row list
	shiftIdx int32  // shifts: instruction index (unique bucket)
}

// Write data-source classes. Their numeric order is irrelevant — ordering
// goes through srcRank which reproduces the "buf" < "host" < "x%d" string
// order.
const (
	srcBuf  int32 = -1
	srcHost int32 = -2
)

func makeSig(in *isa.Instruction, idx int) mergeSig {
	switch in.Kind {
	case isa.KindRead:
		h := uint64(14695981039346656037) // FNV-1a offset basis
		for _, r := range in.Rows {
			h ^= uint64(r)
			h *= 1099511628211
		}
		return mergeSig{kind: isa.KindRead, array: int32(in.Array), rowsLen: int32(len(in.Rows)), rowsHash: h}
	case isa.KindWrite:
		src := srcBuf
		if in.IsHostWrite() {
			src = srcHost
		} else if in.HasSrcArray {
			src = int32(in.SrcArray)
		}
		return mergeSig{kind: isa.KindWrite, array: int32(in.Array), row: int32(in.Rows[0]), src: src}
	case isa.KindNot:
		return mergeSig{kind: isa.KindNot, array: int32(in.Array)}
	default: // shifts never merge
		return mergeSig{kind: isa.KindShift, shiftIdx: int32(idx)}
	}
}

// kindRank returns the first byte of the historical string key, the
// major sort criterion: 'N' < 'R' < 'S' < 'W'.
func kindRank(k isa.Kind) byte {
	switch k {
	case isa.KindNot:
		return 'N'
	case isa.KindRead:
		return 'R'
	case isa.KindShift:
		return 'S'
	default:
		return 'W'
	}
}

// cmpIntLex compares two non-negative integers as their decimal strings
// (so 10 < 2, matching the lexicographic order the string keys had). The
// digit buffers live on the stack.
func cmpIntLex(a, b int32) int {
	if a == b {
		return 0
	}
	var ab, bb [12]byte
	as := strconv.AppendInt(ab[:0], int64(a), 10)
	bs := strconv.AppendInt(bb[:0], int64(b), 10)
	return bytes.Compare(as, bs)
}

// cmpRowsLex compares two row lists the way their comma-joined decimal
// strings compare. Element-wise decimal comparison is exact here because
// ',' sorts below every digit, so a list that is a strict prefix of
// another always compares lower — the same tie-break the joined string
// had.
func cmpRowsLex(a, b []int) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if c := cmpIntLex(int32(a[i]), int32(b[i])); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// srcRank maps a write's data source to its position in the historical
// "buf" < "host" < "x%d" string order.
func srcRank(src int32) int {
	switch src {
	case srcBuf:
		return 0
	case srcHost:
		return 1
	default:
		return 2
	}
}

// cmpSigRows reproduces sort.Strings over the historical key strings.
func cmpSigRows(a *mergeSig, arows []int, b *mergeSig, brows []int) int {
	ra, rb := kindRank(a.kind), kindRank(b.kind)
	if ra != rb {
		return int(ra) - int(rb)
	}
	switch a.kind {
	case isa.KindNot:
		return cmpIntLex(a.array, b.array)
	case isa.KindRead:
		if c := cmpIntLex(a.array, b.array); c != 0 {
			return c
		}
		return cmpRowsLex(arows, brows)
	case isa.KindShift:
		// Historical key was "S/%06d": zero-padded, so numeric order.
		return int(a.shiftIdx) - int(b.shiftIdx)
	default: // KindWrite
		if c := cmpIntLex(a.array, b.array); c != 0 {
			return c
		}
		if c := cmpIntLex(a.row, b.row); c != 0 {
			return c
		}
		if c := srcRank(a.src) - srcRank(b.src); c != 0 {
			return c
		}
		if srcRank(a.src) == 2 {
			return cmpIntLex(a.src, b.src)
		}
		return 0
	}
}

// mergeProbeWindow is how many issue times beyond its own ready level an
// instruction probes for a fusion partner before opening its own group.
// Probes are further capped by the instruction's deadline, so the window
// only matters for instructions with long slack.
const mergeProbeWindow = 32

// noGroupKey marks a group that is never registered in the dispatch index
// (shifts). Unreachable as a real key: interned signature ids and issue
// times are both non-negative.
const noGroupKey = ^uint64(0)

// mergeGroup is one fusion group of the merger: its signature,
// representative rows, issue time, and members as a linked list through
// mergeScratch.memberNext (program order).
type mergeGroup struct {
	sig        int32 // index into mergeScratch.sigs
	rows       []int
	time       int32
	head, tail int32
	count      int32
}

// colEntry carries one column of a merging instruction with its scouting
// op and host binding.
type colEntry struct {
	col     int
	op      logic.Op
	binding string
}

// mergeScratch is the pooled per-call state of the merger.
type mergeScratch struct {
	order      []int32
	members    []int32
	cols       []colEntry
	levels     []int32
	slack      []int32
	groups     []mergeGroup
	sigs       []mergeSig         // interned signature table
	sigID      map[mergeSig]int32 // signature → index into sigs
	groupAt    map[uint64]int32   // sigID<<32|time → group id
	memberNext []int32
	colGroup   []int32 // per (array,col): group that last claimed the column
	colGen     []int32 // generation stamp validating colGroup entries
	colEpoch   int32
}

var mergePool = sync.Pool{New: func() any {
	return &mergeScratch{
		sigID:   make(map[mergeSig]int32),
		groupAt: make(map[uint64]int32),
	}
}}

func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// beginGroups resets the grouping state for one program. Groups are
// pre-sized to the instruction count (their hard upper bound) so append
// never redoubles a multi-megabyte backing mid-pass.
func (ms *mergeScratch) beginGroups(n int, space isa.Space) {
	ms.sigs = ms.sigs[:0]
	clear(ms.sigID)
	clear(ms.groupAt)
	if cap(ms.groups) < n {
		ms.groups = make([]mergeGroup, 0, n)
	}
	ms.groups = ms.groups[:0]
	ms.memberNext = grow(ms.memberNext, n)
	cols := space.Arrays * space.BufCols
	if cap(ms.colGroup) < cols {
		ms.colGroup = make([]int32, cols)
		ms.colGen = make([]int32, cols)
		ms.colEpoch = 0
	}
	ms.colGroup = ms.colGroup[:cols]
	ms.colGen = ms.colGen[:cols]
	if ms.colEpoch == math.MaxInt32 {
		for i := range ms.colGen {
			ms.colGen[i] = 0
		}
		ms.colEpoch = 0
	}
	ms.colEpoch++
}

// newGroup opens a fusion group with one member and returns its id.
// Registering overwrites any same-key entry — only reachable through the
// column-conflict fail safe, in which case the stale group simply stops
// accepting members.
func (ms *mergeScratch) newGroup(sid int32, rows []int, member, time int32, key uint64) int32 {
	id := int32(len(ms.groups))
	ms.groups = append(ms.groups, mergeGroup{sig: sid, rows: rows, time: time, head: member, tail: member, count: 1})
	if key != noGroupKey {
		ms.groupAt[key] = id
	}
	ms.memberNext[member] = -1
	return id
}

// colConflict reports whether the instruction shares a column with a group
// member. Column claims are generation-stamped per (array, column), so the
// check is O(columns of the instruction) with no clearing between calls.
func (ms *mergeScratch) colConflict(gid int32, in *isa.Instruction, space isa.Space) bool {
	base := in.Array * space.BufCols
	for _, c := range in.Cols {
		k := base + c
		if ms.colGen[k] == ms.colEpoch && ms.colGroup[k] == gid {
			return true
		}
	}
	return false
}

func (ms *mergeScratch) stampCols(gid int32, in *isa.Instruction, space isa.Space) {
	base := in.Array * space.BufCols
	for _, c := range in.Cols {
		k := base + c
		ms.colGen[k] = ms.colEpoch
		ms.colGroup[k] = gid
	}
}

// appendMerged fuses one group of same-signature instructions onto out.
// Group columns are disjoint by construction (checked at join time); a
// shared column would be a scheduler bug, in which case the group passes
// through unmerged (fail safe).
func (ms *mergeScratch) appendMerged(out isa.Program, p isa.Program, idxs []int32) isa.Program {
	if len(idxs) == 1 {
		return append(out, p[idxs[0]])
	}
	base := &p[idxs[0]]
	cols := ms.cols[:0]
	for _, ii := range idxs {
		in := &p[ii]
		for k, c := range in.Cols {
			ce := colEntry{col: c}
			if len(in.Ops) > 0 {
				ce.op = in.Ops[k]
			}
			if in.Bindings != nil {
				ce.binding = in.Bindings[k]
			}
			cols = append(cols, ce)
		}
	}
	slices.SortFunc(cols, func(a, b colEntry) int { return a.col - b.col })
	ms.cols = cols
	for i := 1; i < len(cols); i++ {
		if cols[i].col == cols[i-1].col {
			for _, ii := range idxs {
				out = append(out, p[ii])
			}
			return out
		}
	}

	merged := isa.Instruction{
		Kind:        base.Kind,
		Array:       base.Array,
		Rows:        base.Rows,
		Right:       base.Right,
		ShiftBy:     base.ShiftBy,
		HasSrcArray: base.HasSrcArray,
		SrcArray:    base.SrcArray,
	}
	merged.Cols = make([]int, len(cols))
	for i, ce := range cols {
		merged.Cols[i] = ce.col
	}
	if len(base.Ops) > 0 {
		merged.Ops = make([]logic.Op, len(cols))
		for i, ce := range cols {
			merged.Ops[i] = ce.op
		}
	}
	if base.Bindings != nil {
		merged.Bindings = make([]string, len(cols))
		for i, ce := range cols {
			merged.Bindings[i] = ce.binding
		}
	}
	return append(out, merged)
}

// hazardScratch is the pooled, epoch-stamped flat hazard state of the
// scheduling passes. An entry is live only when its generation stamp
// matches the current pass, so reusing the arrays across programs — and
// across the forward and backward pass of one call — costs no clearing.
//
// The per-resource arrays are direction-agnostic: the forward pass stores
// the latest past writer/reader level per resource, the backward pass the
// earliest future one. The per-array summaries (shiftLvl, aggW, aggR) are
// what make whole-buffer shifts O(1): a shift consults and updates three
// array-wide entries instead of touching every column's buffer bit, and
// bit-level accesses consult their array's shift entry alongside their own
// bit. Bit entries staler than the last shift are dominated by it in every
// max (forward) or min (backward), so they never need clearing.
type hazardScratch struct {
	gen         int32
	writerGen   []int32
	readerGen   []int32
	writerLevel []int32
	readerLevel []int32

	// Per-array summaries, indexed by array id.
	shiftGen []int32
	shiftLvl []int32 // forward: last shift's level; backward: next shift's
	aggWGen  []int32
	aggW     []int32 // forward: max live buffer-bit writer level; backward: min
	aggRGen  []int32
	aggR     []int32 // forward: max live buffer-bit reader level; backward: min
}

var hazardPool = sync.Pool{New: func() any { return new(hazardScratch) }}

func (h *hazardScratch) begin(size, arrays int) {
	if cap(h.writerGen) < size {
		h.writerGen = make([]int32, size)
		h.readerGen = make([]int32, size)
		h.writerLevel = make([]int32, size)
		h.readerLevel = make([]int32, size)
		h.gen = 0
	}
	h.writerGen = h.writerGen[:size]
	h.readerGen = h.readerGen[:size]
	h.writerLevel = h.writerLevel[:size]
	h.readerLevel = h.readerLevel[:size]
	if cap(h.shiftGen) < arrays {
		h.shiftGen = make([]int32, arrays)
		h.shiftLvl = make([]int32, arrays)
		h.aggWGen = make([]int32, arrays)
		h.aggW = make([]int32, arrays)
		h.aggRGen = make([]int32, arrays)
		h.aggR = make([]int32, arrays)
	}
	h.shiftGen = h.shiftGen[:arrays]
	h.shiftLvl = h.shiftLvl[:arrays]
	h.aggWGen = h.aggWGen[:arrays]
	h.aggW = h.aggW[:arrays]
	h.aggRGen = h.aggRGen[:arrays]
	h.aggR = h.aggR[:arrays]
	if h.gen == math.MaxInt32 {
		for i := range h.writerGen {
			h.writerGen[i] = 0
			h.readerGen[i] = 0
		}
		for i := range h.shiftGen {
			h.shiftGen[i] = 0
			h.aggWGen[i] = 0
			h.aggRGen[i] = 0
		}
		h.gen = 0
	}
	h.gen++
}

// forwardLevels assigns each instruction its ASAP dependence level — the
// earliest level at which every RAW/WAW/WAR hazard against earlier
// instructions has retired — and returns the maximum level. Shifts are
// O(1): instead of walking every buffer bit of their array they consult the
// array's aggregate writer/reader levels and record themselves in the
// array's shift entry, which bit-level accesses consult in turn. The levels
// are exactly those of the historical per-bit walk.
func forwardLevels(p isa.Program, s isa.Space, h *hazardScratch, levels []int32) int32 {
	cellBase := int32(s.Arrays * s.BufCols)
	maxLevel := int32(0)
	for i := range p {
		in := &p[i]
		lvl := int32(0)
		switch in.Kind {
		case isa.KindRead:
			a := in.Array
			for _, c := range in.Cols {
				rowBase := cellBase + int32((a*s.BufCols+c)*s.Rows)
				for _, r := range in.Rows {
					id := rowBase + int32(r)
					if h.writerGen[id] == h.gen && h.writerLevel[id] >= lvl {
						lvl = h.writerLevel[id] + 1 // RAW on the cell
					}
				}
				b := s.BufID(a, c)
				if h.writerGen[b] == h.gen && h.writerLevel[b] >= lvl {
					lvl = h.writerLevel[b] + 1 // WAW on the buffer bit
				}
				if h.readerGen[b] == h.gen && h.readerLevel[b] >= lvl {
					lvl = h.readerLevel[b] + 1 // WAR on the buffer bit
				}
			}
			if h.shiftGen[a] == h.gen && h.shiftLvl[a] >= lvl {
				lvl = h.shiftLvl[a] + 1 // the last shift wrote every bit
			}
			for _, c := range in.Cols {
				rowBase := cellBase + int32((a*s.BufCols+c)*s.Rows)
				for _, r := range in.Rows {
					id := rowBase + int32(r)
					if h.readerGen[id] != h.gen || h.readerLevel[id] < lvl {
						h.readerGen[id], h.readerLevel[id] = h.gen, lvl
					}
				}
				b := s.BufID(a, c)
				h.writerGen[b], h.writerLevel[b] = h.gen, lvl
				h.readerGen[b] = 0 // a write retires all readers since the last write
			}
			if h.aggWGen[a] != h.gen || h.aggW[a] < lvl {
				h.aggWGen[a], h.aggW[a] = h.gen, lvl
			}
		case isa.KindWrite:
			src := in.Source()
			host := in.IsHostWrite()
			row := int32(in.Rows[0])
			for _, c := range in.Cols {
				if !host {
					b := s.BufID(src, c)
					if h.writerGen[b] == h.gen && h.writerLevel[b] >= lvl {
						lvl = h.writerLevel[b] + 1 // RAW on the buffer bit
					}
				}
				id := cellBase + int32((in.Array*s.BufCols+c)*s.Rows) + row
				if h.writerGen[id] == h.gen && h.writerLevel[id] >= lvl {
					lvl = h.writerLevel[id] + 1 // WAW on the cell
				}
				if h.readerGen[id] == h.gen && h.readerLevel[id] >= lvl {
					lvl = h.readerLevel[id] + 1 // WAR on the cell
				}
			}
			if !host && h.shiftGen[src] == h.gen && h.shiftLvl[src] >= lvl {
				lvl = h.shiftLvl[src] + 1
			}
			for _, c := range in.Cols {
				if !host {
					b := s.BufID(src, c)
					if h.readerGen[b] != h.gen || h.readerLevel[b] < lvl {
						h.readerGen[b], h.readerLevel[b] = h.gen, lvl
					}
				}
				id := cellBase + int32((in.Array*s.BufCols+c)*s.Rows) + row
				h.writerGen[id], h.writerLevel[id] = h.gen, lvl
				h.readerGen[id] = 0
			}
			if !host {
				if h.aggRGen[src] != h.gen || h.aggR[src] < lvl {
					h.aggRGen[src], h.aggR[src] = h.gen, lvl
				}
			}
		case isa.KindNot:
			a := in.Array
			for _, c := range in.Cols {
				b := s.BufID(a, c)
				if h.writerGen[b] == h.gen && h.writerLevel[b] >= lvl {
					lvl = h.writerLevel[b] + 1
				}
				if h.readerGen[b] == h.gen && h.readerLevel[b] >= lvl {
					lvl = h.readerLevel[b] + 1
				}
			}
			if h.shiftGen[a] == h.gen && h.shiftLvl[a] >= lvl {
				lvl = h.shiftLvl[a] + 1
			}
			// The write retires the instruction's own read, so only the
			// writer side is committed — exactly as the per-bit walk did.
			for _, c := range in.Cols {
				b := s.BufID(a, c)
				h.writerGen[b], h.writerLevel[b] = h.gen, lvl
				h.readerGen[b] = 0
			}
			if h.aggWGen[a] != h.gen || h.aggW[a] < lvl {
				h.aggWGen[a], h.aggW[a] = h.gen, lvl
			}
		case isa.KindShift:
			a := in.Array
			if h.aggWGen[a] == h.gen && h.aggW[a] >= lvl {
				lvl = h.aggW[a] + 1 // RAW/WAW vs every live bit writer
			}
			if h.aggRGen[a] == h.gen && h.aggR[a] >= lvl {
				lvl = h.aggR[a] + 1 // WAR vs every live bit reader
			}
			if h.shiftGen[a] == h.gen && h.shiftLvl[a] >= lvl {
				lvl = h.shiftLvl[a] + 1
			}
			h.shiftGen[a], h.shiftLvl[a] = h.gen, lvl
		}
		levels[i] = lvl
		if lvl > maxLevel {
			maxLevel = lvl
		}
	}
	return maxLevel
}

// backwardSlack assigns each instruction its deadline: the minimum forward
// level over its hazard successors, math.MaxInt32 when it has none. An
// instruction may be delayed to any time strictly below its deadline
// without reordering against a successor. The pass mirrors forwardLevels in
// reverse — writerLevel holds the next writer's level, readerLevel the
// minimum future reader level before that writer, and the per-array
// summaries make shifts O(1). Entries beyond an intervening writer or shift
// are dominated in the min by the hazard chain through it, so they are
// never cleared.
func backwardSlack(p isa.Program, s isa.Space, h *hazardScratch, levels, slack []int32) {
	cellBase := int32(s.Arrays * s.BufCols)
	for i := len(p) - 1; i >= 0; i-- {
		in := &p[i]
		l := levels[i]
		dl := int32(math.MaxInt32)
		switch in.Kind {
		case isa.KindRead:
			a := in.Array
			for _, c := range in.Cols {
				rowBase := cellBase + int32((a*s.BufCols+c)*s.Rows)
				for _, r := range in.Rows {
					id := rowBase + int32(r)
					if h.writerGen[id] == h.gen && h.writerLevel[id] < dl {
						dl = h.writerLevel[id] // WAR: next cell writer
					}
				}
				b := s.BufID(a, c)
				if h.writerGen[b] == h.gen && h.writerLevel[b] < dl {
					dl = h.writerLevel[b] // WAW: next bit writer
				}
				if h.readerGen[b] == h.gen && h.readerLevel[b] < dl {
					dl = h.readerLevel[b] // RAW: future bit readers
				}
			}
			if h.shiftGen[a] == h.gen && h.shiftLvl[a] < dl {
				dl = h.shiftLvl[a]
			}
			for _, c := range in.Cols {
				rowBase := cellBase + int32((a*s.BufCols+c)*s.Rows)
				for _, r := range in.Rows {
					id := rowBase + int32(r)
					if h.readerGen[id] != h.gen || h.readerLevel[id] > l {
						h.readerGen[id], h.readerLevel[id] = h.gen, l
					}
				}
				b := s.BufID(a, c)
				h.writerGen[b], h.writerLevel[b] = h.gen, l
				h.readerGen[b] = 0 // readers beyond this writer are cut off
			}
			if h.aggWGen[a] != h.gen || h.aggW[a] > l {
				h.aggWGen[a], h.aggW[a] = h.gen, l
			}
		case isa.KindWrite:
			src := in.Source()
			host := in.IsHostWrite()
			row := int32(in.Rows[0])
			for _, c := range in.Cols {
				if !host {
					b := s.BufID(src, c)
					if h.writerGen[b] == h.gen && h.writerLevel[b] < dl {
						dl = h.writerLevel[b] // WAR: next bit writer
					}
				}
				id := cellBase + int32((in.Array*s.BufCols+c)*s.Rows) + row
				if h.writerGen[id] == h.gen && h.writerLevel[id] < dl {
					dl = h.writerLevel[id] // WAW: next cell writer
				}
				if h.readerGen[id] == h.gen && h.readerLevel[id] < dl {
					dl = h.readerLevel[id] // RAW: future cell readers
				}
			}
			if !host && h.shiftGen[src] == h.gen && h.shiftLvl[src] < dl {
				dl = h.shiftLvl[src]
			}
			for _, c := range in.Cols {
				if !host {
					b := s.BufID(src, c)
					if h.readerGen[b] != h.gen || h.readerLevel[b] > l {
						h.readerGen[b], h.readerLevel[b] = h.gen, l
					}
				}
				id := cellBase + int32((in.Array*s.BufCols+c)*s.Rows) + row
				h.writerGen[id], h.writerLevel[id] = h.gen, l
				h.readerGen[id] = 0
			}
			if !host {
				if h.aggRGen[src] != h.gen || h.aggR[src] > l {
					h.aggRGen[src], h.aggR[src] = h.gen, l
				}
			}
		case isa.KindNot:
			a := in.Array
			for _, c := range in.Cols {
				b := s.BufID(a, c)
				if h.writerGen[b] == h.gen && h.writerLevel[b] < dl {
					dl = h.writerLevel[b]
				}
				if h.readerGen[b] == h.gen && h.readerLevel[b] < dl {
					dl = h.readerLevel[b]
				}
			}
			if h.shiftGen[a] == h.gen && h.shiftLvl[a] < dl {
				dl = h.shiftLvl[a]
			}
			// As the nearest writer it also covers its own read for
			// earlier writers (same level on the same bit).
			for _, c := range in.Cols {
				b := s.BufID(a, c)
				h.writerGen[b], h.writerLevel[b] = h.gen, l
				h.readerGen[b] = 0
			}
			if h.aggWGen[a] != h.gen || h.aggW[a] > l {
				h.aggWGen[a], h.aggW[a] = h.gen, l
			}
		case isa.KindShift:
			a := in.Array
			if h.aggWGen[a] == h.gen && h.aggW[a] < dl {
				dl = h.aggW[a] // earliest future bit writer
			}
			if h.aggRGen[a] == h.gen && h.aggR[a] < dl {
				dl = h.aggR[a] // earliest future bit reader
			}
			if h.shiftGen[a] == h.gen && h.shiftLvl[a] < dl {
				dl = h.shiftLvl[a]
			}
			h.shiftGen[a], h.shiftLvl[a] = h.gen, l
		}
		slack[i] = dl
	}
}
