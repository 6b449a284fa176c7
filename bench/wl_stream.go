package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"sherlock"
	"sherlock/internal/dfg"
	"sherlock/internal/layout"
	"sherlock/internal/sim"
	"sherlock/internal/workloads/analytics"
)

// The stream workload: a closed loop with one caller issuing query pairs
// through warm Streamers — the bitmap-index COUNT plan, then the bit-serial
// filter+SUM scan over 8-bit values — each over streamRows rows, far more
// packed input than the 1 MiB chunk budget. All time goes to the streaming
// pipeline, the executor and the fused sinks; nothing compiles.

const (
	streamRows      = 1 << 24
	smokeStreamRows = 1 << 16
)

type streamState struct {
	rows             int
	count, sum       *sherlock.Compiled
	countIn, sumIn   []uint64
	wantCount        int64
	wantSum          uint64
	planes           []int
	countSt, sumSt   *sherlock.Streamer
	countSink        sherlock.CountSink
	sumSink          sherlock.SumBitsSink
	quality          *quality
	scanCfg          analytics.ScanConfig
	filterCfg        analytics.FilterSumConfig
	countDFG, sumDFG func() (*dfg.Graph, error)
}

func (st *streamState) close() {
	st.countSt.Close()
	st.sumSt.Close()
}

func setupStream(seed int64, rows int) (*streamState, error) {
	st := &streamState{
		rows:      rows,
		scanCfg:   analytics.DefaultScanConfig(),
		filterCfg: analytics.DefaultFilterSumConfig(),
		quality:   &quality{},
	}
	st.countDFG = func() (*dfg.Graph, error) { return analytics.BuildScan(st.scanCfg) }
	st.sumDFG = func() (*dfg.Graph, error) { return analytics.BuildFilterSum(st.filterCfg) }
	var err error
	for _, p := range []struct {
		c     **sherlock.Compiled
		build func() (*dfg.Graph, error)
	}{{&st.count, st.countDFG}, {&st.sum, st.sumDFG}} {
		g, err := p.build()
		if err != nil {
			return nil, err
		}
		if *p.c, err = sherlock.CompileGraph(g, benchOptions()); err != nil {
			return nil, err
		}
		if err := st.quality.addCompiled(*p.c); err != nil {
			return nil, err
		}
	}
	if st.countIn, err = analytics.PackedData(st.count.InputNames(), "col", rows, seed); err != nil {
		return nil, err
	}
	if st.wantCount, err = analytics.HostCount(st.scanCfg, st.count.InputNames(), st.countIn, rows); err != nil {
		return nil, err
	}
	if st.sumIn, err = analytics.PackedData(st.sum.InputNames(), analytics.ValuePrefix, rows, seed+1); err != nil {
		return nil, err
	}
	if _, st.wantSum, err = analytics.HostFilterSum(st.filterCfg, st.sum.InputNames(), st.sumIn, rows); err != nil {
		return nil, err
	}
	if st.planes, _, err = analytics.SumPlanes(st.sum.OutputNames(), st.filterCfg.ValueBits); err != nil {
		return nil, err
	}
	st.sumSink.Planes = st.planes
	opts := sherlock.StreamOptions{Parallelism: runtime.GOMAXPROCS(0)}
	if st.countSt, err = st.count.NewStreamer(opts); err != nil {
		return nil, err
	}
	if st.sumSt, err = st.sum.NewStreamer(opts); err != nil {
		st.countSt.Close()
		return nil, err
	}
	// Two warm-up pairs grow the sinks' and pipelines' buffers.
	for i := 0; i < 2; i++ {
		if err := st.pair(); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

// pair runs one operation through the facade and checks both answers
// against the host golden models.
func (st *streamState) pair() error {
	if err := st.countSt.Run(st.countIn, st.rows, &st.countSink); err != nil {
		return err
	}
	if got := st.countSink.Counts[0]; got != st.wantCount {
		return fmt.Errorf("COUNT = %d, host reference %d", got, st.wantCount)
	}
	if err := st.sumSt.Run(st.sumIn, st.rows, &st.sumSink); err != nil {
		return err
	}
	if st.sumSink.Sum != st.wantSum {
		return fmt.Errorf("SUM = %d, host reference %d", st.sumSink.Sum, st.wantSum)
	}
	return nil
}

func runStream(cfg runConfig, r *result) error {
	rows := streamRows
	if cfg.smoke {
		rows = smokeStreamRows
	}
	st, err := setupMedian(r, cfg.setupReps(), func() (*streamState, error) {
		return setupStream(cfg.seed, rows)
	}, (*streamState).close)
	if err != nil {
		return err
	}
	defer st.close()
	st.quality.set(r)

	if !cfg.traced {
		l := newOpLog()
		a0 := heapAllocs()
		for len(l.lat) == 0 || time.Since(l.start) < cfg.duration(1) {
			r.Attempted++
			s := time.Now()
			err := st.pair()
			l.add(s)
			if err != nil {
				r.fail(err)
			}
		}
		if err := r.opMetrics(l, heapAllocs()-a0, cfg.smoke, 1, 0.5, 0.9); err != nil {
			return err
		}
		r.set("rows_per_s", "1/s", 2*float64(rows)*r.Metrics["throughput_per_s"].Value)
		return nil
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	sets, err := probeSet(r, cfg.tr, rng, 3, []namedFront{{"count", st.countDFG}, {"sum", st.sumDFG}})
	if err != nil {
		return err
	}
	base, traced, err := tracedStream(cfg, r, st, sets, rng, cfg.duration(1))
	if err != nil {
		return err
	}
	r.traceOverhead(base, traced)
	// What the facade adds over driving sim.Stream directly: sink
	// begin/end, the Streamer lock, the closure indirection.
	r.set("stream.facade_ms", "ms", median(base)-median(traced))
	return nil
}

// simQuery is one plan driven straight through sim.Stream with
// benchmark-owned pack and reduce callbacks doing the facade sinks' work,
// so the pack and reduce stages can be timed from outside. The reduce
// folds Σ weight·popcount over the weighted outputs: COUNT is one output
// of weight 1, SUM the value planes weighted 2^i.
type simQuery struct {
	st       *sim.Stream
	in       []uint64
	numIn    int
	places   []layout.Place
	weights  []uint64
	outbufs  [][]uint64 // per shard
	acc      []uint64   // per shard
	packNS   atomic.Int64
	reduceNS atomic.Int64
}

func newSimQuery(s *staged, in []uint64, weights map[int]uint64) (*simQuery, error) {
	strm, err := sim.NewStream(s.exec, sim.StreamConfig{Shards: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, err
	}
	q := &simQuery{st: strm, in: in, numIn: s.exec.NumSlots(), acc: make([]uint64, strm.Shards())}
	for o, out := range s.outs {
		if w, ok := weights[o]; ok {
			q.places = append(q.places, out.Place)
			q.weights = append(q.weights, w)
		}
	}
	q.outbufs = make([][]uint64, strm.Shards())
	for i := range q.outbufs {
		q.outbufs[i] = make([]uint64, strm.BlockWords())
	}
	return q, nil
}

// run streams rows lanes through the pipeline and returns the fold.
func (q *simQuery) run(rows int) (uint64, error) {
	W := (rows + 63) / 64
	clear(q.acc)
	pack := func(m *sim.ExecMachine, chunk, start, lanes int) error {
		t0 := time.Now()
		w0, gw := start/64, (lanes+63)/64
		in, B := m.InputBlock(), m.BlockWords()
		for slot := 0; slot < q.numIn; slot++ {
			copy(in[slot*B:slot*B+gw], q.in[slot*W+w0:slot*W+w0+gw])
		}
		q.packNS.Add(int64(time.Since(t0)))
		return nil
	}
	reduce := func(shard int, m *sim.ExecMachine, chunk, start, lanes int) error {
		t0 := time.Now()
		buf := q.outbufs[shard][:(lanes+63)/64]
		for i, p := range q.places {
			if _, err := m.OutWords(p, buf); err != nil {
				return err
			}
			n := 0
			for _, w := range buf {
				n += bits.OnesCount64(w)
			}
			q.acc[shard] += uint64(n) * q.weights[i]
		}
		q.reduceNS.Add(int64(time.Since(t0)))
		return nil
	}
	if err := q.st.Run(rows, pack, reduce); err != nil {
		return 0, err
	}
	var total uint64
	for _, a := range q.acc {
		total += a
	}
	return total, nil
}

// tracedStream runs query pairs on sim.Stream directly for d, each pair an
// operation with a span per query and per pipeline run, alternating with
// untraced facade pairs (the overhead baseline) so both see the same host
// conditions. sets holds the COUNT and SUM programs compiled layer by
// layer. It returns the baseline and traced pair latencies.
func tracedStream(cfg runConfig, r *result, st *streamState, sets []*staged, rng *rand.Rand, d time.Duration) (base, traced []float64, err error) {
	// The staged programs are the facade's programs (mapping is
	// deterministic), so the facade's packed inputs fit their slot order;
	// the reference check would catch it if they did not.
	countW := map[int]uint64{0: 1}
	sumW := map[int]uint64{}
	for i, o := range st.planes {
		sumW[o] = 1 << uint(i)
	}
	cq, err := newSimQuery(sets[0], st.countIn, countW)
	if err != nil {
		return nil, nil, err
	}
	defer cq.st.Close()
	sq, err := newSimQuery(sets[1], st.sumIn, sumW)
	if err != nil {
		return nil, nil, err
	}
	defer sq.st.Close()

	tr := cfg.tr
	op := int64(0)
	t0 := time.Now()
	for len(traced) == 0 || time.Since(t0) < d {
		r.Attempted++
		s := time.Now()
		err := st.pair()
		base = append(base, ms(time.Since(s)))
		if err != nil {
			r.fail(err)
		}

		op++
		r.Attempted++
		s = time.Now()
		root := tr.begin("stream.pair", "", op, spanRef{})
		err = func() error {
			for _, q := range []struct {
				name string
				sq   *simQuery
				want uint64
			}{{"count", cq, uint64(st.wantCount)}, {"sum", sq, st.wantSum}} {
				sp := tr.begin("stream.query", q.name, op, root)
				run := tr.begin("sim.stream_run", q.name, op, sp)
				got, err := q.sq.run(st.rows)
				run.end()
				sp.end()
				if err != nil {
					return err
				}
				if got != q.want {
					return fmt.Errorf("%s = %d, host reference %d", q.name, got, q.want)
				}
			}
			return nil
		}()
		root.end()
		traced = append(traced, ms(time.Since(s)))
		if err != nil {
			r.fail(err)
		}
	}
	n := float64(len(traced))
	r.set("stream.pack_ms", "ms", float64(cq.packNS.Load()+sq.packNS.Load())/1e6/n)
	r.set("stream.reduce_ms", "ms", float64(cq.reduceNS.Load()+sq.reduceNS.Load())/1e6/n)
	chunks := 0
	for _, q := range []*simQuery{cq, sq} {
		chunks += (st.rows + q.st.ChunkLanes() - 1) / q.st.ChunkLanes()
	}
	r.set("stream.chunks", "count", float64(chunks))
	r.set("stream.chunk_lanes", "count", float64(cq.st.ChunkLanes()))
	r.set("stream.shards", "count", float64(cq.st.Shards()))
	// One chunk-width executor pass of the COUNT plan, outside the pipeline.
	chunkPass, err := execProbe(tr, -10, "sim.chunk_pass", "count", sets[0].exec.NewMachine(cq.st.BlockWords()), rng, 50)
	if err != nil {
		return nil, nil, err
	}
	r.set("sim.chunk_pass_us", "us", float64(chunkPass)/1e3)
	return base, traced, nil
}
