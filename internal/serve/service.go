package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"sherlock"
	"sherlock/internal/cpu"
	"sherlock/internal/memo"
	"sherlock/internal/pool"
)

// Config parameterizes a Service. The zero value serves with sensible
// defaults: unbounded registry, 200µs batch window, 256-lane batches,
// auto routing, GOMAXPROCS-bounded concurrent passes.
type Config struct {
	// Registry bounds the compile cache.
	Registry RegistryConfig
	// Window is the coalescing batch window (see CoalescerConfig.Window:
	// 0 selects the 200µs default, negative disables the timer). It opens
	// only while a kernel's requests arrive denser than one per window;
	// sparser requests run at once. Below 1ms the bound is loose: an idle
	// Go process wakes its timers at 1ms granularity.
	Window time.Duration
	// MaxBatchLanes is the size flush trigger (default 256 = one pass).
	MaxBatchLanes int
	// Parallelism caps the concurrent chunks of each executor pass
	// (RunBatchWords' parallelism), merged or direct.
	Parallelism int
	// MaxConcurrentPasses bounds executor passes in flight across all
	// kernels (0 = unlimited).
	MaxConcurrentPasses int
	// Backend pins routing for every request (BackendAuto = per-request
	// cost-model decision).
	Backend Backend
	// CPU is the host hierarchy the router models (zero = Table 1 default).
	CPU cpu.Hierarchy
}

// Service is the serving architecture's root object: registry + per-entry
// coalescers + router, safe for unbounded concurrent use.
type Service struct {
	cfg     Config
	reg     *Registry
	router  *Router
	limiter *pool.Limiter

	hub         coalesceHub // coalescer totals and open windows; holds no evicted kernel
	cimRequests atomic.Int64
	cpuRequests atomic.Int64
	vectors     atomic.Int64
}

// NewService builds a service.
func NewService(cfg Config) *Service {
	return &Service{
		cfg:     cfg,
		reg:     NewRegistry(cfg.Registry),
		router:  NewRouter(cfg.CPU),
		limiter: pool.NewLimiter(cfg.MaxConcurrentPasses),
		hub:     coalesceHub{open: make(map[*Coalescer]struct{})},
	}
}

// Registry exposes the underlying compile cache.
func (s *Service) Registry() *Registry { return s.reg }

// CompileC compiles (or re-serves) a C-subset kernel through the registry.
func (s *Service) CompileC(src string, opts sherlock.Options) (*Entry, error) {
	return s.reg.CompileC(src, opts)
}

// CompileGraph compiles (or re-serves) a DFG through the registry.
func (s *Service) CompileGraph(g *sherlock.Graph, opts sherlock.Options) (*Entry, error) {
	return s.reg.CompileGraph(g, opts)
}

// Lookup resolves a previously compiled key.
func (s *Service) Lookup(key Key) (*Entry, bool) { return s.reg.Lookup(key) }

// RunWords serves one packed request (RunBatchWords layout): the router
// picks a backend, CIM requests join the entry's batch window, CPU
// requests evaluate bit-sliced on the host model. Returns the filled
// output block and the backend that served it.
func (s *Service) RunWords(e *Entry, in []uint64, lanes int, out []uint64, force Backend) ([]uint64, Backend, error) {
	if force == BackendAuto {
		force = s.cfg.Backend
	}
	d, err := s.router.Route(e, lanes, force)
	if err != nil {
		return nil, 0, err
	}
	s.vectors.Add(int64(lanes))
	if d.Backend == BackendCPU {
		s.cpuRequests.Add(1)
		out, err = runCPU(e, in, lanes, out)
		return out, BackendCPU, err
	}
	s.cimRequests.Add(1)
	out, err = s.coalescerFor(e).Submit(in, lanes, out)
	return out, BackendCIM, err
}

// Run serves one map-keyed batch (the HTTP front door's shape): inputs are
// validated against the entry's binding names here, at admission, so a
// caller's missing binding fails that caller alone and never poisons a
// shared batch.
func (s *Service) Run(e *Entry, batch []map[string]bool, force Backend) ([]map[string]bool, Backend, error) {
	lanes := len(batch)
	if lanes == 0 {
		return nil, BackendCIM, nil
	}
	W := laneWords(lanes)
	in := make([]uint64, len(e.InputNames)*W)
	for l, vec := range batch {
		for slot, name := range e.InputNames {
			v, ok := vec[name]
			if !ok {
				return nil, 0, fmt.Errorf("serve: vector %d: unbound input %q", l, name)
			}
			if v {
				in[slot*W+l/64] |= uint64(1) << uint(l%64)
			}
		}
	}
	out, backend, err := s.RunWords(e, in, lanes, nil, force)
	if err != nil {
		return nil, backend, err
	}
	outs := make([]map[string]bool, lanes)
	for l := range outs {
		m := make(map[string]bool, len(e.OutputNames))
		for o, name := range e.OutputNames {
			m[name] = out[o*W+l/64]>>uint(l%64)&1 == 1
		}
		outs[l] = m
	}
	return outs, backend, nil
}

// Route exposes the router's verdict for a hypothetical request (the
// stats/debug surface).
func (s *Service) Route(e *Entry, lanes int) (Decision, error) {
	force := s.cfg.Backend
	return s.router.Route(e, lanes, force)
}

// coalescerFor returns the entry's batch queue, building it exactly once.
// The queue lives as long as the entry: the service keeps only the hub's
// counters, and a reference while the queue's batch window is open.
func (s *Service) coalescerFor(e *Entry) *Coalescer {
	e.coalOnce.Do(func() {
		e.coal = NewCoalescer(e.Compiled, CoalescerConfig{
			MaxBatchLanes: s.cfg.MaxBatchLanes,
			Window:        s.cfg.Window,
			Parallelism:   s.cfg.Parallelism,
			Limiter:       s.limiter,
			hub:           &s.hub,
		})
		s.hub.mu.Lock()
		s.hub.queues++
		s.hub.mu.Unlock()
	})
	return e.coal
}

// Drain flushes every open batch window, including windows of kernels the
// registry has since evicted (shutdown path: no request waits out a timer
// that may never fire again). The service stays usable.
func (s *Service) Drain() {
	s.hub.mu.Lock()
	qs := make([]*Coalescer, 0, len(s.hub.open))
	for q := range s.hub.open { //sherlock:allow rangemap (flush order is irrelevant)
		qs = append(qs, q)
	}
	s.hub.mu.Unlock()
	for _, q := range qs {
		q.Flush()
	}
}

// Close is Drain: the service holds no goroutines or pipelines to release,
// and stays usable afterwards.
func (s *Service) Close() { s.Drain() }

// Stats is the service-wide counter snapshot.
type Stats struct {
	Registry    memo.Stats
	Coalesce    CoalescerStats // summed over every queue built, evicted ones included
	Queues      int            // coalescers built
	CIMRequests int64
	CPURequests int64
	Vectors     int64
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		Registry:    s.reg.Stats(),
		CIMRequests: s.cimRequests.Load(),
		CPURequests: s.cpuRequests.Load(),
		Vectors:     s.vectors.Load(),
	}
	s.hub.mu.Lock()
	st.Coalesce, st.Queues = s.hub.stats, s.hub.queues
	s.hub.mu.Unlock()
	return st
}
