package experiments

import (
	"reflect"
	"testing"

	"sherlock/internal/device"
)

// TestMonteCarloVectorizedDeterminism pins the SWAR campaign's determinism
// contract: shards own fixed seed streams and fixed lane ranges, so one
// seed produces byte-identical results — same fault counts, same observed
// rates — at every Parallelism. The run count is chosen so shards get
// uneven shares and the last lane block of each shard is a partial word.
func TestMonteCarloVectorizedDeterminism(t *testing.T) {
	const runs = 333
	var base MCResult
	for i, parallelism := range []int{1, 4, 16} {
		mc, err := MonteCarlo(runnerWith(parallelism), Bitweaving, device.STTMRAM, 128, runs, 99)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = mc
			if mc.FaultsInjected == 0 {
				t.Log("no faults at this P_DF; determinism still checked")
			}
			continue
		}
		if !reflect.DeepEqual(mc, base) {
			t.Errorf("Parallelism %d: %+v differs from Parallelism 1: %+v", parallelism, mc, base)
		}
	}
}

// TestMonteCarloMatchesLegacyLaneShards pins the campaign's tallies for one
// seed: 333 runs, seed 99, quick Bitweaving on STT-MRAM at 128x128. The
// values were recorded from the interpreting 64-lane shards the executor
// path replaced. The RNG contract (inputs drawn run-major in g.Inputs()
// order, one Int63 per 64-run group, geometric-skip flips per column) is
// observable history — results published from earlier versions must
// reproduce.
func TestMonteCarloMatchesLegacyLaneShards(t *testing.T) {
	const (
		runs      = 333
		seed      = int64(99)
		size      = 128
		faults    = 36 // FaultsInjected
		faultRuns = 35 // runs with at least one flip
		errorRuns = 6  // runs with a wrong output
	)
	got, err := MonteCarlo(runnerWith(4), Bitweaving, device.STTMRAM, size, runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.FaultsInjected != faults {
		t.Errorf("FaultsInjected = %d, want %d", got.FaultsInjected, faults)
	}
	if want := float64(faultRuns) / runs; got.ObservedFaultRate != want {
		t.Errorf("ObservedFaultRate = %v, want %v", got.ObservedFaultRate, want)
	}
	if want := float64(errorRuns) / runs; got.ObservedErrorRate != want {
		t.Errorf("ObservedErrorRate = %v, want %v", got.ObservedErrorRate, want)
	}
}

// TestMonteCarloRepeatable asserts re-running the same campaign on the
// same runner gives the same result (executor machines and RNG streams are
// per-call, never reused across campaigns).
func TestMonteCarloRepeatable(t *testing.T) {
	r := runnerWith(4)
	a, err := MonteCarlo(r, Bitweaving, device.STTMRAM, 128, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(r, Bitweaving, device.STTMRAM, 128, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("second campaign %+v differs from first %+v", b, a)
	}
}
