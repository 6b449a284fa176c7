// Package memo provides the singleflight memoization primitive behind the
// compile-once serve-many architecture: a concurrency-safe, generically
// keyed cache where the first requester of a key builds the value while
// every concurrent requester of the same key blocks on that one build, so
// an expensive computation (a graph build, a mapping, a full compile
// pipeline) runs at most once per unique key per process.
//
// A Memo is optionally bounded: MaxEntries and MaxBytes turn it into an
// LRU — completed entries are tracked in recency order and the
// least-recently-used are dropped when either budget is exceeded. Values
// are immutable from the cache's point of view, so eviction only removes
// the cache's reference: callers already holding a value (including ones
// mid-execution on it) are unaffected, and a later request for the evicted
// key simply rebuilds.
//
// The experiments.Runner and the serve.Registry are both built on this
// type; they were previously two hand-rolled copies of the same pattern.
package memo

import (
	"container/list"
	"errors"
	"sync"
)

// Config bounds a Memo. The zero value is an unbounded cache.
type Config[V any] struct {
	// MaxEntries caps the number of completed entries kept (0 = unbounded).
	MaxEntries int
	// MaxBytes caps the sum of SizeOf over completed entries (0 = unbounded;
	// ignored when SizeOf is nil).
	MaxBytes int64
	// SizeOf estimates a completed value's retained size for the MaxBytes
	// budget. nil sizes every entry as 0.
	SizeOf func(V) int64
}

// Stats is a point-in-time snapshot of a Memo's counters.
type Stats struct {
	Hits      int64 // completed entry found
	Misses    int64 // no entry: this requester ran the build
	Coalesced int64 // entry found mid-build: requester blocked on it (singleflight)
	Evictions int64 // completed entries dropped by the LRU budgets
	Inflight  int64 // builds running right now
	Entries   int64 // completed entries currently held
	Bytes     int64 // SizeOf sum over completed entries
}

// entry is one memoization slot. done/val/err/size are written exactly once
// under the owning Memo's lock before any waiter can observe done==true;
// the once gate serializes build with all waiters.
type entry[V any] struct {
	once sync.Once
	val  V
	err  error
	done bool
	size int64
	elem *list.Element // LRU position; nil until completed (or after eviction)
}

// Memo is the cache. The zero value is not usable; call New.
type Memo[K comparable, V any] struct {
	cfg Config[V]

	mu      sync.Mutex
	entries map[K]*entry[V]
	lru     *list.List // of K, front = most recently used
	stats   Stats
}

// New builds a Memo with the given bounds.
func New[K comparable, V any](cfg Config[V]) *Memo[K, V] {
	return &Memo[K, V]{
		cfg:     cfg,
		entries: make(map[K]*entry[V]),
		lru:     list.New(),
	}
}

// Do returns the memoized value for key, building it with build on the
// first request. Concurrent requesters of the same key block until the one
// build finishes and then share its result (value or error — errors are
// cached too: with content-addressed keys the same input deterministically
// fails the same way). build runs outside the Memo's lock, so builds of
// distinct keys proceed in parallel and build may reentrantly call Do for a
// different key. If build panics, the panic continues in the goroutine that
// ran it, every requester blocked on that build gets an error, and the key
// is dropped so the next request builds afresh.
func (m *Memo[K, V]) Do(key K, build func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.entries[key]
	if ok {
		if e.done {
			m.stats.Hits++
			if e.elem != nil {
				m.lru.MoveToFront(e.elem)
			}
		} else {
			m.stats.Coalesced++
		}
	} else {
		e = new(entry[V])
		m.entries[key] = e
		m.stats.Misses++
	}
	m.mu.Unlock()

	e.once.Do(func() {
		m.mu.Lock()
		m.stats.Inflight++
		m.mu.Unlock()
		built := false
		defer func() {
			if !built {
				m.abandon(key, e)
			}
		}()
		val, err := build()
		built = true
		m.mu.Lock()
		e.val, e.err = val, err
		if m.cfg.SizeOf != nil && err == nil {
			e.size = m.cfg.SizeOf(val)
		}
		e.done = true
		m.stats.Inflight--
		// The entry may have raced with an eviction-then-reinsert only if it
		// was removed from the map; completion of a removed entry must not
		// re-enter the LRU. Still mapped entries join at the front.
		if m.entries[key] == e {
			e.elem = m.lru.PushFront(key)
			m.stats.Entries++
			m.stats.Bytes += e.size
			m.evictLocked()
		}
		m.mu.Unlock()
	})
	return e.val, e.err
}

// errBuildPanicked is what requesters sharing a build get when that build
// panicked instead of returning.
var errBuildPanicked = errors.New("memo: build panicked")

// abandon settles an entry whose build panicked (or exited its
// goroutine): its waiters get errBuildPanicked, and the key is unmapped so
// a later request rebuilds instead of sharing the failure.
func (m *Memo[K, V]) abandon(key K, e *entry[V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.err = errBuildPanicked
	m.stats.Inflight--
	if m.entries[key] == e {
		delete(m.entries, key)
	}
}

// Lookup returns the completed value for key without building. In-flight
// builds do not count: Lookup never blocks.
func (m *Memo[K, V]) Lookup(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok || !e.done || e.err != nil {
		var zero V
		return zero, false
	}
	m.stats.Hits++
	if e.elem != nil {
		m.lru.MoveToFront(e.elem)
	}
	return e.val, true
}

// Forget drops the entry for key if present and completed, returning
// whether anything was removed. In-flight builds are left alone (their
// requesters still share one build; the completed value just won't be
// retained if Forget won the race — it will, because Forget only removes
// completed entries).
func (m *Memo[K, V]) Forget(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok || !e.done {
		return false
	}
	m.removeLocked(key, e)
	return true
}

// Stats returns a snapshot of the counters.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// evictLocked enforces the budgets, dropping least-recently-used completed
// entries. Callers hold m.mu.
func (m *Memo[K, V]) evictLocked() {
	for m.overBudgetLocked() {
		back := m.lru.Back()
		if back == nil {
			return
		}
		key := back.Value.(K)
		e := m.entries[key]
		m.removeLocked(key, e)
		m.stats.Evictions++
	}
}

func (m *Memo[K, V]) overBudgetLocked() bool {
	if m.cfg.MaxEntries > 0 && m.lru.Len() > m.cfg.MaxEntries {
		return true
	}
	if m.cfg.MaxBytes > 0 && m.stats.Bytes > m.cfg.MaxBytes && m.lru.Len() > 1 {
		// Keep at least one entry even when a single value exceeds the byte
		// budget: an always-empty cache would silently disable singleflight
		// for the very programs that are most expensive to rebuild.
		return true
	}
	return false
}

func (m *Memo[K, V]) removeLocked(key K, e *entry[V]) {
	delete(m.entries, key)
	if e.elem != nil {
		m.lru.Remove(e.elem)
		e.elem = nil
	}
	m.stats.Entries--
	m.stats.Bytes -= e.size
}
