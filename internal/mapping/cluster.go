package mapping

import (
	"fmt"
	"slices"

	"sherlock/internal/bitvec"
	"sherlock/internal/dfg"
)

// cluster is a group of op nodes destined for one CIM column. Its footprint
// is the set of operand cells the column must hold: every input consumed by
// the cluster's ops (locally produced or copied in) plus every output. The
// representation is adaptive (see clusterer.dense): a bitset over the dense
// operand numbering while the operand space is small enough that a bitset
// scan beats a merge walk, a sorted slice of operand indices beyond that —
// a footprint never exceeds maxSize entries, so the sparse form keeps
// 100k-op DFGs at O(footprint) memory per cluster instead of O(operands).
// Exactly one of fp/footprint is in use; both implement the same set
// semantics, so the emitted program does not depend on the choice.
type cluster struct {
	id  int
	ops []dfg.NodeID

	// Sparse form.
	fp []int32 // sorted distinct operand indices; len(fp) ≤ maxSize

	// Dense form.
	footprint *bitvec.Vector
	size      int32 // popcount of footprint
	lo, hi    int32 // dirty word band [lo, hi] (hi < lo when empty)
}

func (c *cluster) has(x int32) bool {
	if c.footprint != nil {
		return c.footprint.Get(int(x))
	}
	_, ok := slices.BinarySearch(c.fp, x)
	return ok
}

// fpSize returns the footprint's cardinality.
func (c *cluster) fpSize() int {
	if c.footprint != nil {
		return int(c.size)
	}
	return len(c.fp)
}

// footprintWith sizes the union with extra operand cells; extra holds
// dense operand indices (clusterer.fpIdx).
func (c *cluster) footprintWith(extra []int32) int {
	n := c.fpSize()
	for _, x := range extra {
		if !c.has(x) {
			n++
		}
	}
	return n
}

func (c *cluster) add(op dfg.NodeID, operands []int32) {
	c.ops = append(c.ops, op)
	if c.footprint != nil {
		for _, x := range operands {
			if !c.footprint.Get(int(x)) {
				c.footprint.Set(int(x), true)
				c.size++
				c.lo = min(c.lo, x>>6)
				c.hi = max(c.hi, x>>6)
			}
		}
		return
	}
	for _, x := range operands {
		if i, ok := slices.BinarySearch(c.fp, x); !ok {
			c.fp = slices.Insert(c.fp, i, x)
		}
	}
}

// mergeSortedInto merges two sorted distinct slices into dst (deduplicating
// values present in both) and returns it.
func mergeSortedInto(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// unionSizeAbove reports whether the union of two sorted distinct slices
// has more than limit elements, walking both only as far as needed.
func unionSizeAbove(a, b []int32, limit int) bool {
	n := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
		n++
		if n > limit {
			return true
		}
		if n+(len(a)-i)+(len(b)-j) <= limit {
			return false // even counting every remainder it fits
		}
	}
	return n+(len(a)-i)+(len(b)-j) > limit
}

// clusterer runs the FindClusters procedure of Algorithm 2. All state is
// indexed by dense IDs (NodeID for ops/operands, sequential ints for
// clusters); the only maps left are the adjacency view of mergeClusters.
type clusterer struct {
	g        *dfg.Graph
	bl       []int32 // b-level per node, indexed by NodeID
	numNodes int
	maxSize  int
	opt      Options

	// Footprints only ever hold operand cells, so they are indexed by a
	// dense operand numbering instead of the full NodeID space. dense
	// selects the footprint representation: a bitset while a full scan
	// (numOperands/64 words) costs no more than a sparse merge walk
	// (maxSize entries), sorted slices beyond that.
	fpIdx       []int32 // NodeID -> dense operand index (-1 for ops)
	numOperands int
	dense       bool

	clusters  []*cluster // indexed by cluster id; nil once absorbed
	live      int        // clusters still alive
	opCluster []int32    // NodeID -> cluster id (-1 until assigned)

	// Reusable scratch.
	fpBuf    []dfg.NodeID // one op's footprint (inputs + output)
	fpIdxBuf []int32      // fpBuf translated to dense operand indices
	predBuf  []dfg.NodeID // one op's distinct predecessors
	pcsBuf   []*cluster   // distinct predecessor clusters
	ubufA    []int32      // tryMergeAll's candidate union (double-buffered)
	ubufB    []int32
	fpFree   [][]int32 // absorbed clusters' sparse footprints, ready for reuse

	// Dense-mode scratch.
	union   *bitvec.Vector // tryMergeAll's candidate union
	unionLo int32          // word band the last tryMergeAll dirtied
	unionHi int32
	vecFree []*bitvec.Vector // absorbed clusters' bitsets, ready for reuse
}

// opFootprint appends the operand cells an op contributes — its inputs and
// its output — to buf.
func opFootprint(g *dfg.Graph, op dfg.NodeID, buf []dfg.NodeID) []dfg.NodeID {
	buf = g.AppendOpInputs(op, buf)
	return append(buf, g.OpOutput(op))
}

// findClusters partitions the op nodes into clusters whose footprints fit a
// column (C_maxSize), then greedily merges down toward k clusters. It
// returns the clusters as ordered op lists; every op appears exactly once.
func findClusters(g *dfg.Graph, opt Options, maxSize, k int) ([][]dfg.NodeID, error) {
	n := g.NumNodes()
	c := &clusterer{
		g:         g,
		bl:        g.BLevelsDense(),
		numNodes:  n,
		maxSize:   maxSize,
		opt:       opt,
		opCluster: make([]int32, n),
		fpIdx:     make([]int32, n),
	}
	for i := range c.opCluster {
		c.opCluster[i] = -1
		c.fpIdx[i] = -1
	}
	for _, x := range g.Operands() {
		c.fpIdx[x] = int32(c.numOperands)
		c.numOperands++
	}
	c.dense = c.numOperands <= 64*maxSize
	if c.dense {
		c.union = bitvec.New(c.numOperands)
		c.unionLo, c.unionHi = int32(c.union.Words()), -1
	}
	if err := forEachOp(g, c.assign); err != nil {
		return nil, err
	}
	c.mergeClusters(k)
	return c.ordered(), nil
}

// grabFp returns an empty footprint slice, reusing an absorbed cluster's
// backing when one is free.
func (c *clusterer) grabFp() []int32 {
	if n := len(c.fpFree); n > 0 {
		s := c.fpFree[n-1]
		c.fpFree = c.fpFree[:n-1]
		return s[:0]
	}
	return make([]int32, 0, 16)
}

func (c *clusterer) newCluster(op dfg.NodeID, fp []int32) {
	var cl *cluster
	if c.dense {
		var v *bitvec.Vector
		if n := len(c.vecFree); n > 0 {
			// Recycled vectors were range-zeroed when freed; no Reset needed.
			v = c.vecFree[n-1]
			c.vecFree = c.vecFree[:n-1]
		} else {
			v = bitvec.New(c.numOperands)
		}
		cl = &cluster{id: len(c.clusters), footprint: v, lo: int32(v.Words()), hi: -1}
	} else {
		cl = &cluster{id: len(c.clusters), fp: c.grabFp()}
	}
	cl.add(op, fp)
	c.clusters = append(c.clusters, cl)
	c.live++
	c.opCluster[op] = int32(cl.id)
}

// assign places one op node following the case analysis of Sec. 3.3.1.
// Because predecessors always have strictly higher b-levels, they are
// already assigned when the node is visited.
func (c *clusterer) assign(op dfg.NodeID) error {
	c.fpBuf = opFootprint(c.g, op, c.fpBuf[:0])
	c.fpIdxBuf = c.fpIdxBuf[:0]
	for _, x := range c.fpBuf {
		c.fpIdxBuf = append(c.fpIdxBuf, c.fpIdx[x])
	}
	fp := c.fpIdxBuf
	if len(fp) > c.maxSize {
		return fmt.Errorf("mapping: op %q needs %d cells, column holds %d", c.g.Name(op), len(fp), c.maxSize)
	}
	c.predBuf = c.g.AppendOpPreds(op, c.predBuf[:0])
	preds := c.predBuf
	if len(preds) == 0 {
		c.newCluster(op, fp)
		return nil
	}

	// Distinct predecessor clusters, in deterministic (ascending id) order.
	pcs := c.pcsBuf[:0]
	for _, p := range preds {
		id := c.opCluster[p]
		dup := false
		for _, pc := range pcs {
			if pc.id == int(id) {
				dup = true
				break
			}
		}
		if !dup {
			pcs = append(pcs, c.clusters[id])
		}
	}
	slices.SortFunc(pcs, func(a, b *cluster) int { return a.id - b.id })
	c.pcsBuf = pcs

	// Case 2 (generalized): when several predecessor clusters can merge
	// into one column together with the node, do so — this removes the
	// cross-cluster dependency entirely.
	if len(pcs) > 1 {
		if merged := c.tryMergeAll(pcs, fp); merged != nil {
			merged.add(op, fp)
			c.opCluster[op] = int32(merged.id)
			return nil
		}
	}

	// Cases 1, 3, 4, 5 collapse into the assignment score (Eq. 1): pick
	// the predecessor cluster with the best score among those with room.
	var best *cluster
	bestScore := 0.0
	for _, pc := range pcs {
		if pc.footprintWith(fp) > c.maxSize {
			continue
		}
		s := c.score(op, pc, preds)
		if best == nil || s > bestScore {
			best, bestScore = pc, s
		}
	}
	if best == nil {
		c.newCluster(op, fp)
		return nil
	}
	best.add(op, fp)
	c.opCluster[op] = int32(best.id)
	return nil
}

// tryMergeAll checks whether all predecessor clusters plus the op's own
// footprint fit one column, and if so merges them. The candidate union is
// built in reusable scratch — nothing is modified unless the merge is
// committed.
func (c *clusterer) tryMergeAll(pcs []*cluster, fp []int32) *cluster {
	if c.dense {
		return c.tryMergeAllDense(pcs, fp)
	}
	u := append(c.ubufA[:0], pcs[0].fp...)
	buf := c.ubufB
	for _, pc := range pcs[1:] {
		buf = mergeSortedInto(buf[:0], u, pc.fp)
		u, buf = buf, u
	}
	c.ubufA, c.ubufB = u, buf // keep the grown backings for reuse
	total := len(u)
	for i, x := range fp {
		if _, ok := slices.BinarySearch(u, x); ok {
			continue
		}
		if slices.Contains(fp[:i], x) {
			continue // duplicate within the op's own footprint
		}
		total++
	}
	if total > c.maxSize {
		return nil
	}
	dst := pcs[0]
	for _, src := range pcs[1:] {
		c.absorb(dst, src)
	}
	return dst
}

// tryMergeAllDense is tryMergeAll's bitset path: word-wide ORs into a
// scratch vector, range-zeroed between calls.
func (c *clusterer) tryMergeAllDense(pcs []*cluster, fp []int32) *cluster {
	// The union scratch is only dirty where the previous call left bits;
	// range-zero that band instead of wiping the whole vector.
	if c.unionHi >= c.unionLo {
		c.union.ZeroRange(int(c.unionLo), int(c.unionHi))
	}
	c.unionLo, c.unionHi = int32(c.union.Words()), -1
	total := 0
	for _, pc := range pcs {
		if pc.hi < pc.lo {
			continue
		}
		total += c.union.OrWithRangeCountNew(pc.footprint, int(pc.lo), int(pc.hi))
		c.unionLo = min(c.unionLo, pc.lo)
		c.unionHi = max(c.unionHi, pc.hi)
	}
	for _, x := range fp {
		if !c.union.Get(int(x)) {
			c.union.Set(int(x), true)
			total++
			c.unionLo = min(c.unionLo, x>>6)
			c.unionHi = max(c.unionHi, x>>6)
		}
	}
	if total > c.maxSize {
		return nil
	}
	dst := pcs[0]
	for _, src := range pcs[1:] {
		c.absorb(dst, src)
	}
	return dst
}

// absorb merges src into dst and deletes src.
func (c *clusterer) absorb(dst, src *cluster) {
	for _, op := range src.ops {
		c.opCluster[op] = int32(dst.id)
	}
	dst.ops = append(dst.ops, src.ops...)
	if c.dense {
		if src.hi >= src.lo {
			oLo, oHi := max(dst.lo, src.lo), min(dst.hi, src.hi)
			inter := 0
			if oLo <= oHi {
				inter = bitvec.IntersectOnesCountRange(dst.footprint, src.footprint, int(oLo), int(oHi))
			}
			dst.footprint.OrWithRange(src.footprint, int(src.lo), int(src.hi))
			dst.size += src.size - int32(inter)
			dst.lo = min(dst.lo, src.lo)
			dst.hi = max(dst.hi, src.hi)
			// Range-zero now so newCluster can reuse the vector without a
			// full Reset.
			src.footprint.ZeroRange(int(src.lo), int(src.hi))
		}
		c.vecFree = append(c.vecFree, src.footprint)
		src.footprint = nil
	} else {
		merged := mergeSortedInto(c.grabFp(), dst.fp, src.fp)
		c.fpFree = append(c.fpFree, dst.fp, src.fp)
		dst.fp = merged
		src.fp = nil
	}
	c.clusters[src.id] = nil
	c.live--
}

// unionAbove reports whether |A∪B| exceeds the column capacity, assuming
// the caller already knows |A|+|B| does.
func (c *clusterer) unionAbove(ca, cb *cluster) bool {
	if c.dense {
		// |A∪B| = |A|+|B|−|A∩B|, and the intersection can only live where
		// the clusters' word bands overlap — usually a narrow band, since
		// clusters grow from temporally adjacent ops.
		oLo, oHi := max(ca.lo, cb.lo), min(ca.hi, cb.hi)
		inter := 0
		if oLo <= oHi {
			inter = bitvec.IntersectOnesCountRange(ca.footprint, cb.footprint, int(oLo), int(oHi))
		}
		return int(ca.size+cb.size)-inter > c.maxSize
	}
	return unionSizeAbove(ca.fp, cb.fp, c.maxSize)
}

// score implements Eq. 1. The default form follows the paper's prose:
// affinity grows with the number of in-cluster predecessors and shrinks
// with their priority distance, while larger clusters are penalized to
// balance load (case 5). With PaperEq1 the literally printed formula
// (β·|C| + α·Σρ) is used instead.
func (c *clusterer) score(op dfg.NodeID, pc *cluster, preds []dfg.NodeID) float64 {
	if c.opt.PaperEq1 {
		sum := 0.0
		for _, q := range preds {
			if c.opCluster[q] == int32(pc.id) {
				sum += float64(c.bl[q] - c.bl[op])
			}
		}
		return beta*float64(len(pc.ops)) + alpha*sum
	}
	affinity := 0.0
	for _, q := range preds {
		if c.opCluster[q] == int32(pc.id) {
			rho := float64(c.bl[q] - c.bl[op])
			affinity += 1 / (1 + rho)
		}
	}
	return alpha*affinity - beta*float64(len(pc.ops))/float64(c.maxSize)
}

// makePair packs a canonically ordered cluster pair into one word, so the
// dependence-occurrence list sorts as plain integers.
func makePair(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// pairEdge is one weighted cluster pair on the merge heap.
type pairEdge struct{ weight, a, b int32 }

// edgeLess orders the merge heap: heaviest pair first, ties by ascending
// pair — a strict total order, so the pop sequence is deterministic.
func edgeLess(x, y pairEdge) bool {
	if x.weight != y.weight {
		return x.weight > y.weight
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// edgeHeap is a hand-rolled binary heap under edgeLess; container/heap's
// interface indirection showed up in mapper profiles, and the merge loop
// pushes and pops tens of thousands of edges.
type edgeHeap []pairEdge

func (h *edgeHeap) push(e pairEdge) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !edgeLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *edgeHeap) pop() pairEdge {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && edgeLess(s[r], s[l]) {
			m = r
		}
		if !edgeLess(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// init establishes the heap property bottom-up (Floyd) in O(n).
func (h edgeHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		j := i
		for {
			l := 2*j + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && edgeLess(h[r], h[l]) {
				m = r
			}
			if !edgeLess(h[m], h[j]) {
				break
			}
			h[j], h[m] = h[m], h[j]
			j = m
		}
	}
}

// mergeClusters greedily merges the most-dependent cluster pairs (data-flow
// edges plus shared operands) until at most k clusters remain or nothing
// more fits in a column. Pair weights are gathered by sorted-pair
// accumulation: every dependence occurrence appends one packed pair (direct
// data-flow edges append two, keeping their historical weight of 2), the
// pair list is sorted once, and equal runs become weighted edges — no
// per-operand set allocation.
func (c *clusterer) mergeClusters(k int) {
	if c.live <= k {
		return
	}
	var pairs []uint64
	var idBuf []int32
	var opBuf []dfg.NodeID
	for _, op := range c.g.OpNodes() {
		a := int(c.opCluster[op])
		// Distinct successor ops (consumers of op's output).
		opBuf = c.g.AppendConsumers(c.g.OpOutput(op), opBuf[:0])
		for i, s := range opBuf {
			dup := false
			for _, q := range opBuf[:i] {
				if q == s {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if b := int(c.opCluster[s]); b != a {
				pk := makePair(a, b)
				pairs = append(pairs, pk, pk) // direct dependency: weight 2
			}
		}
	}
	// Shared operands (two clusters reading the same value).
	for _, operand := range c.g.Operands() {
		opBuf = c.g.AppendConsumers(operand, opBuf[:0])
		idBuf = idBuf[:0]
		for _, cons := range opBuf {
			id := c.opCluster[cons]
			if !slices.Contains(idBuf, id) {
				idBuf = append(idBuf, id)
			}
		}
		slices.Sort(idBuf)
		for i := 0; i < len(idBuf); i++ {
			for j := i + 1; j < len(idBuf); j++ {
				pairs = append(pairs, uint64(idBuf[i])<<32|uint64(idBuf[j]))
			}
		}
	}
	slices.Sort(pairs)

	// Adjacency view for O(degree) weight folding on merge. Cluster ids
	// are dense, so the outer level is a plain slice, and a degree
	// pre-pass sizes each inner map once instead of growing it through
	// several rehashes.
	deg := make([]int32, len(c.clusters))
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		deg[pairs[i]>>32]++
		deg[pairs[i]&0xffffffff]++
		i = j
	}
	adj := make([]map[int]int, len(c.clusters))
	addEdge := func(a, b, w int) {
		m := adj[a]
		if m == nil {
			m = make(map[int]int, deg[a]+4) // slack for folded-in edges
			adj[a] = m
		}
		m[b] += w
	}
	h := make(edgeHeap, 0, len(pairs))
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		a, b, w := int(pairs[i]>>32), int(pairs[i]&0xffffffff), j-i
		addEdge(a, b, w)
		addEdge(b, a, w)
		h = append(h, pairEdge{weight: int32(w), a: int32(a), b: int32(b)})
		i = j
	}
	h.init()

	for c.live > k && len(h) > 0 {
		it := h.pop()
		a, b := int(it.a), int(it.b)
		ca, cb := c.clusters[a], c.clusters[b]
		if ca == nil || cb == nil {
			continue // one side already merged away
		}
		if adj[a][b] != int(it.weight) {
			continue // stale weight; a fresher entry exists
		}
		// |A∪B| ≤ |A|+|B|, so most pairs resolve on the cached sizes alone;
		// only when the sum overshoots is the union actually measured.
		if ca.fpSize()+cb.fpSize() > c.maxSize && c.unionAbove(ca, cb) {
			// Footprints only grow; this pair can never merge. Drop it.
			delete(adj[a], b)
			delete(adj[b], a)
			continue
		}
		// Merge b into a; fold b's adjacency into a's.
		c.absorb(ca, cb)
		delete(adj[a], b)
		// Each neighbour o is folded exactly once and the pair heap has a
		// strict total order on (weight, key), so the pop sequence — and
		// with it the emitted program — is independent of this iteration
		// order. The byte-pinned goldens hold that promise to account.
		//sherlock:allow rangemap
		for o, w := range adj[b] {
			if o == a {
				continue
			}
			delete(adj[o], b)
			addEdge(a, o, w)
			addEdge(o, a, w)
			na, nb := a, o
			if na > nb {
				na, nb = nb, na
			}
			h.push(pairEdge{weight: int32(adj[a][o]), a: int32(na), b: int32(nb)})
		}
		adj[b] = nil
	}
}

// ordered returns the surviving clusters' op lists, clusters in ascending
// id order and ops within a cluster left in insertion (priority) order.
func (c *clusterer) ordered() [][]dfg.NodeID {
	out := make([][]dfg.NodeID, 0, c.live)
	for _, cl := range c.clusters {
		if cl != nil {
			out = append(out, cl.ops)
		}
	}
	return out
}
