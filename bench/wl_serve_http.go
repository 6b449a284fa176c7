package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sherlock"
	"sherlock/internal/cparser"
	"sherlock/internal/dfg"
	"sherlock/internal/serve"
	"sherlock/internal/workloads/bitweaving"
)

// The serve-http workload: a closed loop of GOMAXPROCS clients, each on
// one keep-alive loopback connection to an in-process httptest server
// around serve.NewHandler, with the registry bounded to httpMaxPrograms.
// 49 of every 50 requests are /v1/run by key with 32 map-keyed vectors on
// one of four C BETWEEN kernels; every 50th is /v1/compile of a fresh
// kernel source, a registry miss that runs cparser and the mapper and
// drives LRU evictions. Request bodies are encoded during setup.

const (
	httpLanes        = 32
	httpCompileEvery = 50
	httpMaxPrograms  = 16
)

var httpWidths = []int{8, 12, 16, 24}

// betweenSource is the BETWEEN predicate over w-bit bit-sliced codes in
// the C subset the server compiles (the Fig. 3a shape).
func betweenSource(name string, w int) string {
	return fmt.Sprintf(`void %s(word x[%d], word c1[%d], word c2[%d], word *hit) {
	word lt = 0;
	word eq1 = 1;
	word gt = 0;
	word eq2 = 1;
	for (i = 0; i < %d; i++) {
		word xi = x[%d-i];
		lt = lt | (eq1 & ~xi & c1[%d-i]);
		eq1 = eq1 & ~(xi ^ c1[%d-i]);
		gt = gt | (eq2 & xi & ~c2[%d-i]);
		eq2 = eq2 & ~(xi ^ c2[%d-i]);
	}
	*hit = ~lt & ~gt;
}
`, name, w, w, w, w, w-1, w-1, w-1, w-1, w-1)
}

// wireOptions is the options object every request sends, and wireCompile
// the sherlock.Options the server derives from it (for the key check).
var (
	wireOptions = map[string]any{"verifyEmitted": true}
	wireCompile = sherlock.Options{Tech: sherlock.STTMRAM, Mapper: sherlock.MapperOptimized, VerifyEmitted: true}
)

// runBody is one pre-encoded /v1/run request and its reference answers.
type runBody struct {
	body []byte
	want []bool // hit per vector
}

type httpState struct {
	svc     *serve.Service
	srv     *httptest.Server
	client  *http.Client
	sources []string
	keys    []string
	bodies  [][]runBody // per kernel
	quality *quality
}

func (st *httpState) close() {
	st.srv.Close()
	st.client.CloseIdleConnections()
	st.svc.Close()
}

// post sends one request; parent and op tag the server-side span.
func (st *httpState) post(path string, body []byte, op int64, parent spanRef) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, st.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent.valid {
		req.Header.Set("X-Bench-Op", strconv.FormatInt(op, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatInt(parent.id, 10))
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// compile posts src to /v1/compile and checks the answer: a fresh entry
// whose key is the content address of (src, options).
func (st *httpState) compile(src string, op int64, parent spanRef) (string, error) {
	body, err := json.Marshal(map[string]any{"source": src, "options": wireOptions})
	if err != nil {
		return "", err
	}
	data, err := st.post("/v1/compile", body, op, parent)
	if err != nil {
		return "", err
	}
	var resp struct {
		Key          string   `json:"key"`
		Cached       bool     `json:"cached"`
		Instructions int      `json:"instructions"`
		Outputs      []string `json:"outputs"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return "", fmt.Errorf("decoding compile response: %w", err)
	}
	if want := serve.KeySource(src, wireCompile).String(); resp.Key != want {
		return "", fmt.Errorf("compile returned key %s, content address is %s", resp.Key, want)
	}
	if resp.Cached || resp.Instructions == 0 || len(resp.Outputs) != 1 || resp.Outputs[0] != "hit" {
		return "", fmt.Errorf("compile response %+v for a fresh one-output kernel", resp)
	}
	return resp.Key, nil
}

// checkRun decodes a /v1/run response against the reference answers.
func checkRun(data []byte, want []bool) error {
	var resp struct {
		Outputs []map[string]bool `json:"outputs"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("decoding run response: %w", err)
	}
	if len(resp.Outputs) != len(want) {
		return fmt.Errorf("run returned %d vectors, sent %d", len(resp.Outputs), len(want))
	}
	for l, w := range want {
		if got, ok := resp.Outputs[l]["hit"]; !ok || got != w {
			return fmt.Errorf("vector %d: hit = %v, reference %v", l, got, w)
		}
	}
	return nil
}

func setupServeHTTP(seed int64, tr *tracer) (_ *httpState, err error) {
	svc := serve.NewService(serve.Config{Registry: serve.RegistryConfig{MaxPrograms: httpMaxPrograms}})
	var h http.Handler = serve.NewHandler(svc)
	if tr != nil {
		h = traceHandler(tr, h)
	}
	p := runtime.GOMAXPROCS(0)
	st := &httpState{
		svc: svc,
		srv: httptest.NewServer(h),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     p,
			MaxIdleConnsPerHost: p,
			DisableCompression:  true,
		}},
		quality: &quality{},
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	for _, w := range httpWidths {
		src := betweenSource(fmt.Sprintf("between%d", w), w)
		key, err := st.compile(src, 0, spanRef{})
		if err != nil {
			return nil, err
		}
		k, err := serve.ParseKey(key)
		if err != nil {
			return nil, err
		}
		e, ok := svc.Lookup(k)
		if !ok {
			return nil, fmt.Errorf("kernel %s vanished from the registry", key)
		}
		if err := st.quality.addCompiled(e.Compiled); err != nil {
			return nil, err
		}
		st.sources = append(st.sources, src)
		st.keys = append(st.keys, key)
		var bodies []runBody
		for i := 0; i < poolPerKernel; i++ {
			b, err := encodeRun(rng, key, w)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
		st.bodies = append(st.bodies, bodies)
	}
	// Warm-up: every body once, and one fresh compile.
	for _, bodies := range st.bodies {
		for _, b := range bodies {
			data, err := st.post("/v1/run", b.body, 0, spanRef{})
			if err == nil {
				err = checkRun(data, b.want)
			}
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if _, err := st.compile(freshSource(seed, -1, 0), 0, spanRef{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// encodeRun builds one /v1/run body of httpLanes random vectors on a
// w-bit BETWEEN kernel, with the BitWeaving golden model's answers.
func encodeRun(rng *rand.Rand, key string, w int) (runBody, error) {
	mask := uint64(1)<<uint(w) - 1
	c1, c2 := rng.Uint64()&mask, rng.Uint64()&mask
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	batch := make([]map[string]bool, httpLanes)
	want := make([]bool, httpLanes)
	for l := range batch {
		x := rng.Uint64() & mask
		vec := make(map[string]bool, 3*w)
		for b := 0; b < w; b++ {
			vec[fmt.Sprintf("x[%d]", b)] = x>>uint(b)&1 == 1
			vec[fmt.Sprintf("c1[%d]", b)] = c1>>uint(b)&1 == 1
			vec[fmt.Sprintf("c2[%d]", b)] = c2>>uint(b)&1 == 1
		}
		batch[l] = vec
		want[l] = bitweaving.Reference(x, c1, c2, w)
	}
	body, err := json.Marshal(map[string]any{"key": key, "batch": batch})
	return runBody{body: body, want: want}, err
}

// freshSource is a kernel no earlier request has sent: a BETWEEN of
// seeded width under a name unique to (client, n).
func freshSource(seed int64, client, n int) string {
	w := 4 + int((uint64(seed)*31+uint64(client)*17+uint64(n))%8)
	return betweenSource(fmt.Sprintf("fresh_%d_%d_%d", seed, client+1, n), w)
}

// traceHandler records the server-side span of each traced request, under
// the client span named in its headers.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.ParseInt(req.Header.Get("X-Bench-Span"), 10, 64)
		if err != nil {
			h.ServeHTTP(w, req) // an untraced request
			return
		}
		op, _ := strconv.ParseInt(req.Header.Get("X-Bench-Op"), 10, 64)
		kind := strings.TrimPrefix(req.URL.Path, "/v1/")
		sp := tr.begin("http.handler", kind, op, spanRef{id: parent})
		h.ServeHTTP(w, req)
		sp.end()
	})
}

// httpOp is one client request's outcome, kept for the check after the
// timed phase.
type httpOp struct {
	compile bool
	src     string
	data    []byte
	want    []bool
	err     error
}

// clients runs GOMAXPROCS closed-loop clients for d and returns every
// request's latency and completion, and the outcomes to check.
func (st *httpState) clients(seed int64, d time.Duration, tr *tracer, opBase int64) (*opLog, []httpOp) {
	p := runtime.GOMAXPROCS(0)
	logs := make([]*opLog, p)
	ops := make([][]httpOp, p)
	var wg sync.WaitGroup
	all := newOpLog()
	deadline := all.start.Add(d)
	for c := 0; c < p; c++ {
		logs[c] = newOpLog()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				op := opBase + int64(n*p+c)
				compile := n%httpCompileEvery == httpCompileEvery-1
				var o httpOp
				var body []byte
				kind := "run"
				if compile {
					kind = "compile"
					o = httpOp{compile: true, src: freshSource(seed, c, n)}
				} else {
					k := rng.Intn(len(st.bodies))
					b := st.bodies[k][rng.Intn(len(st.bodies[k]))]
					body, o.want = b.body, b.want
				}
				s := time.Now()
				root := tr.begin("request", kind, op, spanRef{})
				if compile {
					_, o.err = st.compile(o.src, op, root)
				} else {
					o.data, o.err = st.post("/v1/run", body, op, root)
				}
				root.end()
				logs[c].add(s)
				// Keep compiles (checked inline), failures and every
				// checkEvery-th run response for the check after timing.
				if compile || o.err != nil || n%checkEvery == 0 {
					ops[c] = append(ops[c], o)
				}
			}
		}()
	}
	wg.Wait()
	var kept []httpOp
	for c := range logs {
		all.merge(logs[c])
		kept = append(kept, ops[c]...)
	}
	return all, kept
}

// checkHTTP validates the kept outcomes and counts every request.
func checkHTTP(r *result, l *opLog, ops []httpOp) {
	r.Attempted += int64(len(l.lat))
	for _, o := range ops {
		err := o.err
		if err == nil && !o.compile {
			err = checkRun(o.data, o.want)
		}
		if err != nil {
			r.fail(err)
		}
	}
}

func runServeHTTP(cfg runConfig, r *result) error {
	st, err := setupMedian(r, cfg.setupReps(), func() (*httpState, error) {
		return setupServeHTTP(cfg.seed, cfg.tr)
	}, (*httpState).close)
	if err != nil {
		return err
	}
	defer st.close()
	st.quality.set(r)
	reg0 := st.svc.Stats()

	if !cfg.traced {
		a0 := heapAllocs()
		l, ops := st.clients(cfg.seed, cfg.duration(1), nil, 0)
		allocs := heapAllocs() - a0
		checkHTTP(r, l, ops)
		registryMetrics(r, reg0, st.svc.Stats())
		coalesceMetrics(r, "coalesce", reg0, st.svc.Stats(), 0)
		return r.opMetrics(l, allocs, cfg.smoke, 1, 0.5, 0.9, 0.99)
	}

	// Untraced phases (the overhead baseline) alternate with traced ones,
	// so both see the same host conditions. Each phase has its own seed:
	// fresh kernel sources must not repeat.
	var base, traced []float64
	for i := int64(0); i < 3; i++ {
		l, ops := st.clients(cfg.seed*16+2*i, cfg.duration(1.0/6), nil, 0)
		checkHTTP(r, l, ops)
		base = append(base, l.lat...)
		l, ops = st.clients(cfg.seed*16+2*i+1, cfg.duration(1.0/6), cfg.tr, (i+1)<<40)
		checkHTTP(r, l, ops)
		traced = append(traced, l.lat...)
	}
	r.traceOverhead(base, traced)
	registryMetrics(r, reg0, st.svc.Stats())
	coalesceMetrics(r, "coalesce", reg0, st.svc.Stats(), 0)

	// Side probes: the front end alone on fresh sources, and a registry
	// lookup by key.
	var parse []float64
	for n := 0; n < 50; n++ {
		src := freshSource(cfg.seed, 1000, n)
		sp := cfg.tr.begin("cparser.compile", "", -30, spanRef{})
		t0 := time.Now()
		_, err := cparser.Compile(src)
		parse = append(parse, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			return err
		}
	}
	r.set("cparser.compile_ms", "ms", median(parse))
	key, err := serve.ParseKey(st.keys[0])
	if err != nil {
		return err
	}
	var look []float64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		_, ok := st.svc.Lookup(key)
		look = append(look, float64(time.Since(t0))/1e3)
		if !ok {
			return fmt.Errorf("hot kernel evicted")
		}
	}
	r.set("registry.lookup_us", "us", median(look))
	spanMetrics(r, cfg.tr.snapshot())

	var fronts []namedFront
	for i, src := range st.sources {
		src := src
		fronts = append(fronts, namedFront{fmt.Sprintf("between%d", httpWidths[i]), func() (*dfg.Graph, error) {
			c, err := cparser.Compile(src)
			if err != nil {
				return nil, err
			}
			return c.Graph, nil
		}})
	}
	_, err = probeSet(r, cfg.tr, rand.New(rand.NewSource(cfg.seed)), 3, fronts)
	return err
}

// registryMetrics reports the registry's traffic over the timed phases.
func registryMetrics(r *result, before, after serve.Stats) {
	hits := after.Registry.Hits - before.Registry.Hits
	misses := after.Registry.Misses - before.Registry.Misses
	if hits+misses > 0 {
		r.set("registry.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	r.set("registry.misses", "count", float64(misses))
	r.set("registry.evictions", "count", float64(after.Registry.Evictions-before.Registry.Evictions))
}

// spanMetrics derives the HTTP layer split from the traced requests: the
// handler's own time per endpoint, and what the client side (encoding,
// transport, the server's connection handling) adds around it.
func spanMetrics(r *result, spans []span) {
	self := selfTimes(spans)
	handler := map[string][]float64{}
	var client []float64
	for _, s := range spans {
		switch s.Name {
		case "http.handler":
			handler[s.Arg] = append(handler[s.Arg], ms(s.End-s.Start))
		case "request":
			client = append(client, ms(self[s.ID]))
		}
	}
	for _, kind := range []string{"run", "compile"} {
		if len(handler[kind]) > 0 {
			r.set("http.handler_ms."+kind, "ms", median(handler[kind]))
		}
	}
	r.set("http.client_self_ms", "ms", median(client))
}
