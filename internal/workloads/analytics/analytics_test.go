package analytics

import (
	"testing"

	"sherlock"
	"sherlock/internal/dfg"
)

func compileScan(t *testing.T, cfg ScanConfig) *sherlock.Compiled {
	t.Helper()
	g, err := BuildScan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sherlock.CompileGraph(g, sherlock.Options{Tech: sherlock.ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestScanCountMatchesHost streams the bitmap-index plan through the
// fused COUNT sink and checks the tally against the exact host model at
// chunk-edge row counts.
func TestScanCountMatchesHost(t *testing.T) {
	cfg := DefaultScanConfig()
	c := compileScan(t, cfg)
	names := c.InputNames()
	s, err := c.NewStreamer(sherlock.StreamOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var sink sherlock.CountSink
	for _, rows := range []int{1, 63, 64, 65, 255, 256, 257, 4095, 4096, 20000, 40000} {
		in, err := PackedData(names, "col", rows, 42)
		if err != nil {
			t.Fatal(err)
		}
		want, err := HostCount(cfg, names, in, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(in, rows, &sink); err != nil {
			t.Fatal(err)
		}
		if got := sink.Counts[0]; got != want {
			t.Errorf("rows %d: CIM count %d, host %d", rows, got, want)
		}
		// Selectivity sanity: the plan must not be degenerate.
		if rows >= 4096 && (want == 0 || want == int64(rows)) {
			t.Errorf("rows %d: degenerate selectivity %d/%d", rows, want, rows)
		}
	}
}

// TestScanBitmapMatchesBatchWords pins the match bitmap of the packed path
// (the words a Streamer's sinks see) against the plan's DFG evaluated
// word by word with dfg.WordEvaluator, over enough rows to span several
// auto-width chunks.
func TestScanBitmapMatchesBatchWords(t *testing.T) {
	cfg := DefaultScanConfig()
	c := compileScan(t, cfg)
	names := c.InputNames()
	rows := 40000
	in, err := PackedData(names, "col", rows, 9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunBatchWords(in, rows, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	slot := make(map[string]int, len(names))
	for s, name := range names {
		slot[name] = s
	}
	ins := c.Graph.Inputs()
	ev := dfg.NewWordEvaluator(c.Graph)
	W := (rows + 63) / 64
	words := make([]uint64, len(ins))
	for w := 0; w < W; w++ {
		for i, id := range ins {
			words[i] = 0 // a column the mapper folded away cannot matter
			if s, ok := slot[c.Graph.Name(id)]; ok {
				words[i] = in[s*W+w]
			}
		}
		want := ev.Eval(words)[0]
		if rem := rows - w*64; rem < 64 {
			want &= uint64(1)<<uint(rem) - 1
		}
		if got[w] != want {
			t.Fatalf("word %d: packed path %#x, golden model %#x", w, got[w], want)
		}
	}
}

// TestFilterSumMatchesHost runs the bit-serial filter+aggregate scan:
// fused count (match plane) and fused SUM (masked value planes) must
// equal the exact host model.
func TestFilterSumMatchesHost(t *testing.T) {
	cfg := DefaultFilterSumConfig()
	g, err := BuildFilterSum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sherlock.CompileGraph(g, sherlock.Options{Tech: sherlock.ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	names := c.InputNames()
	planes, match, err := SumPlanes(c.OutputNames(), cfg.ValueBits)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.NewStreamer(sherlock.StreamOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	count := sherlock.CountSink{}
	sum := sherlock.SumBitsSink{Planes: planes}
	for _, rows := range []int{1, 64, 65, 257, 4096, 10000} {
		in, err := PackedData(names, ValuePrefix, rows, 1234)
		if err != nil {
			t.Fatal(err)
		}
		wantCount, wantSum, err := HostFilterSum(cfg, names, in, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(in, rows, &count); err != nil {
			t.Fatal(err)
		}
		if got := count.Counts[match]; got != wantCount {
			t.Errorf("rows %d: CIM match count %d, host %d", rows, got, wantCount)
		}
		if err := s.Run(in, rows, &sum); err != nil {
			t.Fatal(err)
		}
		if sum.Sum != wantSum {
			t.Errorf("rows %d: CIM sum %d, host %d", rows, sum.Sum, wantSum)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []ScanConfig{
		{Columns: 0, All: []int{0}},
		{Columns: 4},
		{Columns: 4, All: []int{4}},
		{Columns: 4, None: []int{-1}},
	}
	for i, cfg := range bad {
		if _, err := BuildScan(cfg); err == nil {
			t.Errorf("scan case %d: want error", i)
		}
	}
	badF := []FilterSumConfig{
		{ValueBits: 0, Low: 1, High: 2},
		{ValueBits: 8, Low: 0, High: 10},   // constant GE(v,0)
		{ValueBits: 8, Low: 10, High: 256}, // High out of range
		{ValueBits: 8, Low: 9, High: 9},
	}
	for i, cfg := range badF {
		if _, err := BuildFilterSum(cfg); err == nil {
			t.Errorf("filter case %d: want error", i)
		}
	}
}
