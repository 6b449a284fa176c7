package dfg

import "sherlock/internal/readyq"

// ReadyWalker streams a graph's op nodes in event-driven scheduling order,
// one bounded issue window at a time. Ops sit in a bitmap bucket queue
// (internal/readyq) keyed by descending b-level; an op enters the queue
// when its last predecessor retires. Next returns up to `window` ready ops
// in priority order and retires the previous window first, so an op's
// consumers become eligible no earlier than the window after its own —
// dependence order is preserved by construction, whatever the window size.
//
// A window of 1 degenerates to pure priority order (retire-on-pop), the
// node queue nq of Algorithms 1 and 2: b-levels come out globally
// non-increasing — when the head has b-level b, every unissued op with a
// higher b-level would already be ready and queued ahead of it — and ties
// within one b-level come out in deterministic ready-release (wake-up)
// order. Larger windows issue a whole wave of mutually independent ops
// before any wake-ups from that wave are considered, which is what lets
// structurally parallel clusters advance their row allocators in lockstep
// without a global pre-sort.
//
// The walker is single-use and not safe for concurrent use. Close releases
// the pooled queue; it is safe to call once the walk is done or abandoned.
type ReadyWalker struct {
	g       *Graph
	q       *readyq.Queue
	bl      []int32
	maxBL   int32
	pending []int32
	batch   []NodeID
	emitted int
}

// NewReadyWalker returns a walker over g's op nodes. Construction seeds
// the queue with every op whose inputs are all kernel inputs, in creation
// order.
func (g *Graph) NewReadyWalker() *ReadyWalker {
	g.mu.Lock()
	g.ensureBLevels()
	bl, maxBL := g.blCache, g.maxBL
	g.mu.Unlock()

	w := &ReadyWalker{
		g:       g,
		bl:      bl,
		maxBL:   maxBL,
		pending: make([]int32, len(g.nodes)),
		q:       readyq.Get(len(g.nodes), int(maxBL)+1),
	}
	for id := range g.nodes {
		if g.nodes[id].kind != KindOp {
			continue
		}
		op := NodeID(id)
		n := int32(0)
		for _, in := range g.opInputs[op] {
			if g.producer[in] != NoNode {
				n++
			}
		}
		w.pending[op] = n
		if n == 0 {
			w.q.Push(int32(op), maxBL-bl[op])
		}
	}
	return w
}

// Next retires the previously returned window and pops up to window ready
// ops in priority order. It returns nil when every op has been issued. The
// returned slice is reused by the next call; consume it before advancing.
func (w *ReadyWalker) Next(window int) []NodeID {
	if window < 1 {
		window = 1
	}
	for _, op := range w.batch { // retire: wake the window's dependents
		for _, c := range w.g.consumers[w.g.opOutput[op]] {
			w.pending[c]--
			if w.pending[c] == 0 {
				w.q.Push(int32(c), w.maxBL-w.bl[c])
			}
		}
	}
	w.batch = w.batch[:0]
	for len(w.batch) < window {
		it, _, ok := w.q.PopMin()
		if !ok {
			break
		}
		w.batch = append(w.batch, NodeID(it))
	}
	w.emitted += len(w.batch)
	if len(w.batch) == 0 {
		return nil
	}
	return w.batch
}

// Emitted returns how many ops have been issued so far.
func (w *ReadyWalker) Emitted() int { return w.emitted }

// Close returns the pooled queue. The walker must not be used afterwards.
func (w *ReadyWalker) Close() {
	if w.q != nil {
		readyq.Put(w.q)
		w.q = nil
	}
}
