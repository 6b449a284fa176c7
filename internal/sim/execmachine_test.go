package sim

import (
	"math"
	"slices"
	"testing"

	"sherlock/internal/device"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/reliability"
)

// fillBlock writes each input word into every block word of its slot.
func fillBlock(ex *Exec, m *ExecMachine, words map[string]uint64) []uint64 {
	in, B := m.InputBlock(), m.BlockWords()
	for name, w := range words { //sherlock:allow rangemap (each name owns its slot)
		s, _ := ex.Slot(name)
		for b := 0; b < B; b++ {
			in[s*B+b] = w
		}
	}
	return in
}

// TestGeometricSkipMatchesBinomial checks the executor's geometric-skip
// fault sampler against the exact distribution it must produce: each run of
// faultProgram makes 32 independent XOR2 sense decisions, so its flip count
// is Binomial(32, P_DF), with the count and P_DF read from
// reliability.Assess, the model P_app comes from. Over 4,096 runs at a high
// P_DF, the per-run flip-count histogram must pass a chi-squared
// goodness-of-fit test and the mean flip count a 4-sigma test. It runs at
// block width 1 and at 4, the width the facade's batch passes use. All
// streams are seeded, so the test is deterministic.
func TestGeometricSkipMatchesBinomial(t *testing.T) {
	prog, target, _, laneIn := faultProgram(t)
	params := device.ParamsFor(device.STTMRAM)
	params.RelSDLRS, params.RelSDHRS = 0.5, 0.5 // inflate P_DF into testable range
	rep, err := reliability.Assess(prog, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 1 {
		t.Fatalf("faultProgram has %d sense classes, want 1", len(rep.Classes))
	}
	n, pdf := rep.Classes[0].Count, rep.Classes[0].PDF
	if n != 32 || !(pdf > 0.05 && pdf < 0.95) {
		t.Fatalf("class %+v: want 32 decisions at a testable P_DF", rep.Classes[0])
	}

	const runs = 4096
	// Expected counts per flip count k, merged left to right into bins that
	// each expect at least 5 runs (the last bin absorbs any short tail).
	binOf := make([]int, n+1)
	var want []float64
	lp, _ := math.Lgamma(float64(n + 1))
	for k := 0; k <= n; k++ {
		lk, _ := math.Lgamma(float64(k + 1))
		lnk, _ := math.Lgamma(float64(n - k + 1))
		e := runs * math.Exp(lp-lk-lnk+float64(k)*math.Log(pdf)+float64(n-k)*math.Log1p(-pdf))
		if len(want) == 0 || want[len(want)-1] >= 5 {
			want = append(want, 0)
		}
		want[len(want)-1] += e
		binOf[k] = len(want) - 1
	}
	if last := len(want) - 1; last > 0 && want[last] < 5 {
		want[last-1] += want[last]
		want = want[:last]
		for k := range binOf {
			binOf[k] = min(binOf[k], last-1)
		}
	}
	df := len(want) - 1 // P_DF is given, not fitted
	if df < 5 {
		t.Fatalf("chi-squared degenerate: %d bins", len(want))
	}
	crit := float64(df) + 4*math.Sqrt(2*float64(df)) // ~p<0.001 upper tail

	ex, err := Predecode(prog, target)
	if err != nil {
		t.Fatal(err)
	}
	for _, blockWords := range []int{1, 4} {
		got := make([]float64, len(want))
		total := 0
		m := ex.NewMachine(blockWords)
		lanes := m.MaxLanes()
		for pass := 0; pass < runs/lanes; pass++ {
			m.Reset(lanes)
			m.EnableFaultInjection(params, int64(5000+pass))
			if err := m.Run(fillBlock(ex, m, laneIn)); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < lanes; l++ {
				f := m.FaultCount(l)
				total += f
				got[binOf[f]]++
			}
		}

		mean, sd := float64(n)*pdf, math.Sqrt(float64(n)*pdf*(1-pdf)/runs)
		if dev := float64(total)/runs - mean; math.Abs(dev) > 4*sd {
			t.Errorf("B=%d: mean flips %.3f, want %.3f ± %.3f", blockWords, float64(total)/runs, mean, 4*sd)
		}
		chi2 := 0.0
		for i := range want {
			d := got[i] - want[i]
			chi2 += d * d / want[i]
		}
		t.Logf("B=%d: mean flips %.3f (want %.3f), chi2=%.2f (crit %.2f, df %d)",
			blockWords, float64(total)/runs, mean, chi2, crit, df)
		if chi2 > crit {
			t.Errorf("B=%d: chi2=%.2f exceeds crit=%.2f (df=%d)\nwant %.1f\ngot  %v",
				blockWords, chi2, crit, df, want, got)
		}
	}
}

// TestLaneFaultDeterminism pins the sampler's reproducibility at block
// widths 1 and 4: one seed, one fault pattern.
func TestLaneFaultDeterminism(t *testing.T) {
	prog, target, _, laneIn := faultProgram(t)
	params := device.ParamsFor(device.STTMRAM)
	params.RelSDLRS, params.RelSDHRS = 0.5, 0.5
	ex, err := Predecode(prog, target)
	if err != nil {
		t.Fatal(err)
	}
	for _, blockWords := range []int{1, 4} {
		var counts [2][]int
		for i := range counts {
			m := ex.NewMachine(blockWords)
			m.EnableFaultInjection(params, 42)
			if err := m.Run(fillBlock(ex, m, laneIn)); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < m.Lanes(); l++ {
				counts[i] = append(counts[i], m.FaultCount(l))
			}
		}
		if !slices.Equal(counts[0], counts[1]) {
			t.Fatalf("B=%d: identical seeds gave different flips\n%v\n%v", blockWords, counts[0], counts[1])
		}
	}
}

// TestExecReset asserts Reset reuses a faulted machine cleanly: the lane
// geometry follows the new count, flip tallies and the input scratch clear,
// fault injection disarms, and the next pass reads back only its own inputs.
func TestExecReset(t *testing.T) {
	prog, target, _, laneIn := faultProgram(t)
	params := device.ParamsFor(device.STTMRAM)
	params.RelSDLRS, params.RelSDHRS = 0.5, 0.5 // inflate P_DF so the first pass faults
	ex, err := Predecode(prog, target)
	if err != nil {
		t.Fatal(err)
	}
	m := ex.NewMachine(1)
	m.EnableFaultInjection(params, 7)
	if err := m.RunMap(laneIn); err != nil {
		t.Fatal(err)
	}
	if m.TotalFaults() == 0 {
		t.Fatal("first pass injected no faults; the test cannot see Reset clear them")
	}

	m.Reset(3)
	if m.Lanes() != 3 || m.MaskWord(0) != 7 || m.MaskWord(1) != 0 {
		t.Fatalf("Reset(3): lanes %d masks %#x %#x", m.Lanes(), m.MaskWord(0), m.MaskWord(1))
	}
	if m.TotalFaults() != 0 {
		t.Fatal("fault counts survived Reset")
	}
	for i, w := range m.InputBlock() {
		if w != 0 {
			t.Fatalf("input word %d = %#x survived Reset", i, w)
		}
	}
	flipped := make(map[string]uint64, len(laneIn))
	for n, w := range laneIn { //sherlock:allow rangemap (each name owns its entry)
		flipped[n] = ^w
	}
	if err := m.RunMap(flipped); err != nil {
		t.Fatal(err)
	}
	if m.TotalFaults() != 0 {
		t.Fatal("fault injection stayed armed across Reset")
	}
	w, err := m.ReadOutWord(layout.Place{Array: 0, Col: 0, Row: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := ^laneIn["r0c0"] & 7; w != want {
		t.Fatalf("readout after Reset = %#x, want %#x", w, want)
	}
}

// TestExecLaneEdges drives the boundary lane counts — a single lane, one
// short of a full word, and a full word — through Reset, MaskWord, masked
// readout on both readout paths and fault accounting.
func TestExecLaneEdges(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 4, Cols: 2}
	prog, err := isa.ParseProgram("Write [0][0,1][0] <a,b>")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Predecode(prog, target)
	if err != nil {
		t.Fatal(err)
	}
	p := layout.Place{Array: 0, Col: 0, Row: 0}
	for _, lanes := range []int{1, 63, 64} {
		wantMask := ^uint64(0)
		if lanes < 64 {
			wantMask = uint64(1)<<uint(lanes) - 1
		}
		m := ex.NewMachine(1)
		m.Reset(lanes)
		if m.Lanes() != lanes || m.MaskWord(0) != wantMask {
			t.Fatalf("lanes %d: Lanes()=%d MaskWord(0)=%#x, want mask %#x", lanes, m.Lanes(), m.MaskWord(0), wantMask)
		}
		// Garbage above the live lanes must be masked out of readout.
		if err := m.RunMap(map[string]uint64{"a": ^uint64(0), "b": ^uint64(0)}); err != nil {
			t.Fatalf("lanes %d: %v", lanes, err)
		}
		w, err := m.ReadOutWord(p, 0)
		if err != nil {
			t.Fatalf("lanes %d: %v", lanes, err)
		}
		if w != wantMask {
			t.Fatalf("lanes %d: readout %#x, want %#x", lanes, w, wantMask)
		}
		var out [1]uint64
		if n, err := m.OutWords(p, out[:]); err != nil || n != 1 || out[0] != wantMask {
			t.Fatalf("lanes %d: OutWords %d %#x %v, want 1 %#x", lanes, n, out[0], err, wantMask)
		}
		if m.TotalFaults() != 0 {
			t.Fatalf("lanes %d: faults without injection", lanes)
		}
		// FaultCount bounds follow the lane count exactly.
		if got := m.FaultCount(lanes - 1); got != 0 {
			t.Fatalf("lanes %d: FaultCount(last)=%d", lanes, got)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("lanes %d: FaultCount(%d) did not panic", lanes, lanes)
				}
			}()
			m.FaultCount(lanes)
		}()
	}
}

// TestExecTotalFaultsAfterShrink is the regression test for TotalFaults
// summing beyond the live lane count: tallies above the active lanes are
// stale by definition (only a wider earlier pass could have written them)
// and must not leak into the total. Reset also clears the tallies today, so
// the test plants a stale entry directly; that keeps it sensitive to the
// summation bound, not to Reset's clearing.
func TestExecTotalFaultsAfterShrink(t *testing.T) {
	prog, target, _, laneIn := faultProgram(t)
	ex, err := Predecode(prog, target)
	if err != nil {
		t.Fatal(err)
	}
	m := ex.NewMachine(1)
	m.Reset(3)
	m.flipCounts[40] = 7 // simulate a leftover tally from a 64-lane pass
	if got := m.TotalFaults(); got != 0 {
		t.Fatalf("TotalFaults with 3 lanes = %d, want 0 (stale lane-40 count leaked)", got)
	}
	// A clean narrow run keeps the total at zero.
	if err := m.RunMap(laneIn); err != nil {
		t.Fatal(err)
	}
	if got := m.TotalFaults(); got != 0 {
		t.Fatalf("TotalFaults after clean narrow run = %d, want 0", got)
	}
}
