package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own code, around each
// call it makes into a layer; nothing inside the program under test is
// instrumented. Spans stay in memory and are written once, at exit, as
// Chrome trace-event JSON (viewable in Perfetto or chrome://tracing).

// span is one timed call. Spans of one operation share Op; Parent is the
// ID of the enclosing span (0 for an operation's root).
type span struct {
	ID, Parent, Op int64
	Name           string
	Arg            string // which kernel or request kind, when it matters
	Start, End     time.Duration
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pass nil and pay one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span. The zero value (from a nil tracer or an
// unsampled operation) ends as a no-op.
type spanRef struct {
	t     *tracer
	id    int64
	s     span
	valid bool
}

// begin opens a span under parent (a zero parent makes an operation root).
func (t *tracer) begin(name, arg string, op int64, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.nextID.Add(1)
	return spanRef{t: t, id: id, valid: true, s: span{
		ID: id, Parent: parent.id, Op: op, Name: name, Arg: arg, Start: time.Since(t.t0),
	}}
}

// at records an already-measured interval [start, end] of wall time.
func (t *tracer) at(name, arg string, op int64, parent spanRef, start, end time.Time) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.nextID.Add(1)
	s := span{ID: id, Parent: parent.id, Op: op, Name: name, Arg: arg,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return spanRef{t: t, id: id, valid: true, s: s}
}

// from moves the span's start back to t: an open-loop request's span
// starts when it was due, not when it was sent.
func (r spanRef) from(t time.Time) spanRef {
	if r.valid {
		r.s.Start = t.Sub(r.t.t0)
	}
	return r
}

// end closes the span and stores it.
func (r spanRef) end() {
	if !r.valid {
		return
	}
	r.s.End = time.Since(r.t.t0)
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.s)
	r.t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children that overlap each other
// (concurrent calls) count once, and a child sticking out of its parent is
// clipped to it.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layerTable groups spans by name: count, total, p50, p99 and self time.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	rows := map[string]*layerRow{}
	var names []string
	for _, s := range spans {
		row, ok := rows[s.Name]
		if !ok {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
			names = append(names, s.Name)
		}
		d := ms(s.End - s.Start)
		row.Count++
		row.TotalMS += d
		row.SelfMS += ms(self[s.ID])
		durs[s.Name] = append(durs[s.Name], d)
	}
	sort.Strings(names)
	out := make([]layerRow, 0, len(names))
	for _, name := range names {
		row := rows[name]
		xs := durs[name]
		sort.Float64s(xs)
		row.P50MS, _ = quantile(xs, 0.50)
		row.P99MS, _ = quantile(xs, 0.99)
		out = append(out, *row)
	}
	return out
}

func writeLayers(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "   %-28s %8s %12s %10s %10s %12s\n", "span", "count", "total_ms", "p50_ms", "p99_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "   %-28s %8d %12.3f %10.4f %10.4f %12.3f\n", r.Name, r.Count, r.TotalMS, r.P50MS, r.P99MS, r.SelfMS)
	}
}

// writeChrome writes spans as Chrome trace-event JSON: one complete ("X")
// event per span, one track per operation.
func writeChrome(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}
		if s.Arg != "" {
			args["arg"] = s.Arg
		}
		if err := enc.Encode(event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: s.Op, Args: args}); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
