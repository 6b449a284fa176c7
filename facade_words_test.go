package sherlock

import (
	"math/rand"
	"reflect"
	"testing"
)

// packBatch packs map-keyed vectors into a RunBatchWords slot-major block
// the way the serving layer does.
func packBatch(t *testing.T, names []string, batch []map[string]bool) ([]uint64, int) {
	t.Helper()
	lanes := len(batch)
	W := (lanes + 63) / 64
	in := make([]uint64, len(names)*W)
	for l, inp := range batch {
		for s, name := range names {
			v, ok := inp[name]
			if !ok {
				t.Fatalf("vector %d: missing input %q", l, name)
			}
			if v {
				in[s*W+l/64] |= uint64(1) << uint(l%64)
			}
		}
	}
	return in, lanes
}

// TestRunBatchWordsMatchesRunBatch pins the packed-bits fast path to the
// map path bit for bit, across group boundaries (1, 63, 64, 65, 255, 256,
// 300 lanes exercise partial words, partial blocks, and multi-group runs).
func TestRunBatchWordsMatchesRunBatch(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	names := c.InputNames()
	outNames := c.OutputNames()
	if len(outNames) != 2 {
		t.Fatalf("OutputNames() = %v, want 2 names", outNames)
	}
	rng := rand.New(rand.NewSource(7))
	for _, lanes := range []int{1, 63, 64, 65, 255, 256, 300} {
		batch := make([]map[string]bool, lanes)
		for i := range batch {
			batch[i] = map[string]bool{
				"a": rng.Intn(2) == 1, "b": rng.Intn(2) == 1, "c": rng.Intn(2) == 1,
			}
		}
		want, err := c.RunBatch(batch, 0)
		if err != nil {
			t.Fatal(err)
		}
		in, n := packBatch(t, names, batch)
		out, err := c.RunBatchWords(in, n, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		W := (lanes + 63) / 64
		if len(out) != len(outNames)*W {
			t.Fatalf("lanes=%d: out has %d words, want %d", lanes, len(out), len(outNames)*W)
		}
		for o, name := range outNames {
			for l := 0; l < lanes; l++ {
				got := out[o*W+l/64]>>uint(l%64)&1 == 1
				if got != want[l][name] {
					t.Fatalf("lanes=%d: vector %d output %q: packed=%v map=%v", lanes, l, name, got, want[l][name])
				}
			}
			// Dead lanes of the last word must be masked to zero.
			if rem := lanes % 64; rem != 0 {
				if extra := out[o*W+W-1] >> uint(rem); extra != 0 {
					t.Fatalf("lanes=%d: output %q has bits beyond the last lane: %#x", lanes, name, extra)
				}
			}
		}
	}
}

// TestRunBatchWordsReusesBuffer pins that a caller-provided output buffer
// with enough capacity is returned in place (the steady-state serving
// path allocates nothing).
func TestRunBatchWordsReusesBuffer(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	names := c.InputNames()
	batch := []map[string]bool{
		{"a": true, "b": false, "c": true},
		{"a": false, "b": true, "c": true},
	}
	in, lanes := packBatch(t, names, batch)
	buf := make([]uint64, 16)
	out, err := c.RunBatchWords(in, lanes, buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] {
		t.Error("RunBatchWords reallocated despite sufficient capacity")
	}
	// Warmed up, the packed path performs zero allocations per call. The
	// race detector perturbs sync.Pool reuse, so only assert without it.
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.RunBatchWords(in, lanes, buf, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("RunBatchWords steady state allocates %.1f objects/call, want 0", allocs)
	}
}

func TestRunBatchWordsInputValidation(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunBatchWords(make([]uint64, 1), 65, nil, 1); err == nil {
		t.Error("short input block accepted")
	}
	if _, err := c.RunBatchWords(nil, 0, nil, 1); err == nil {
		t.Error("zero lanes accepted")
	}
}

// TestRunBatchOutputMapsAreCallerOwned pins the RunBatch ownership
// contract: the returned maps are fresh on every call, so a caller
// mutating them — flipping values, adding keys — cannot corrupt a later
// batch's results, and the later batch never returns the same map
// objects.
func TestRunBatchOutputMapsAreCallerOwned(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	batch := []map[string]bool{
		{"a": true, "b": true, "c": false},
		{"a": false, "b": true, "c": true},
		{"a": true, "b": false, "c": true},
	}
	want, err := c.RunBatch(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.RunBatch(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize everything the first call returned.
	for _, m := range first {
		for k := range m {
			m[k] = !m[k]
		}
		m["garbage"] = true
	}
	second, err := c.RunBatch(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if reflect.ValueOf(second[i]).Pointer() == reflect.ValueOf(first[i]).Pointer() {
			t.Errorf("vector %d: second batch returned the first batch's map object", i)
		}
		if _, ok := second[i]["garbage"]; ok {
			t.Errorf("vector %d: caller mutation leaked into the next batch", i)
		}
		for k, v := range want[i] {
			if second[i][k] != v {
				t.Errorf("vector %d output %q: got %v after mutation, want %v", i, k, second[i][k], v)
			}
		}
	}
}

// TestRunBatchEmpty: an empty batch returns an empty result and no error
// (RunBatchWords itself rejects zero lanes).
func TestRunBatchEmpty(t *testing.T) {
	c, err := CompileC(demoKernel, Options{Tech: ReRAM, ArraySize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]map[string]bool{nil, {}} {
		outs, err := c.RunBatch(batch, 0)
		if err != nil {
			t.Fatalf("RunBatch(%d vectors): %v", len(batch), err)
		}
		if outs == nil || len(outs) != 0 {
			t.Fatalf("RunBatch(%d vectors) = %#v, want an empty result", len(batch), outs)
		}
	}
}
