package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"sherlock/internal/device"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/sim/simref"
	"sherlock/internal/verify"
)

// execRunWords predecodes and runs a program on a fresh block machine,
// returning the machine for readout. Word inputs carry bit l = lane l, so
// lanes <= 64.
func execRunWords(t *testing.T, prog isa.Program, target layout.Target, lanes int, words map[string]uint64) (*ExecMachine, error) {
	t.Helper()
	ex, err := Predecode(prog, target)
	if err != nil {
		return nil, err
	}
	m := ex.NewMachine(1)
	m.Reset(lanes)
	if err := m.RunMap(words); err != nil {
		return nil, err
	}
	return m, nil
}

// TestExecMatchesScalarAndLaneFuzz is the differential oracle between the
// pre-decoded executor and the independent reference interpreter
// (simref.Machine): random programs with random inputs must read out
// identically on EVERY lane of one ExecMachine pass and one Machine run per
// lane — at every lane count
// including partial words, and with garbage in the dead high lanes.
func TestExecMatchesScalarAndLaneFuzz(t *testing.T) {
	target := layout.Target{Arrays: 2, Rows: 6, Cols: 5}
	rng := rand.New(rand.NewSource(23))
	laneChoices := []int{1, 2, 7, 31, 63, 64}
	for trial := 0; trial < 150; trial++ {
		pm, defined := randomProgram(rng, target, 24)
		lanes := laneChoices[trial%len(laneChoices)]

		// Every program this oracle executes must also pass the static
		// verifier: the fuzz corpus doubles as the verifier's accept-side
		// evidence (the reject side lives in verify_fuzz_test.go).
		if err := verify.Program(pm.prog, target).Err(); err != nil {
			t.Fatalf("trial %d: static verifier rejected a runnable program: %v\nprogram:\n%s",
				trial, err, pm.prog)
		}

		words := make(map[string]uint64, len(pm.names))
		perLane := make([]map[string]bool, lanes)
		for _, n := range pm.names {
			words[n] = 0
		}
		for l := 0; l < lanes; l++ {
			in := make(map[string]bool, len(pm.names))
			for _, n := range pm.names {
				v := rng.Intn(2) == 1
				in[n] = v
				if v {
					words[n] |= uint64(1) << uint(l)
				}
			}
			perLane[l] = in
		}
		if lanes < 64 {
			for _, n := range pm.names {
				words[n] |= rng.Uint64() << uint(lanes)
			}
		}

		em, err := execRunWords(t, pm.prog, target, lanes, words)
		if err != nil {
			t.Fatalf("trial %d: exec: %v\nprogram:\n%s", trial, err, pm.prog)
		}
		for l := 0; l < lanes; l++ {
			sm := simref.NewMachine(target)
			if err := sm.Run(pm.prog, perLane[l]); err != nil {
				t.Fatalf("trial %d lane %d: scalar machine: %v\nprogram:\n%s", trial, l, err, pm.prog)
			}
			for _, p := range defined {
				want, err := sm.ReadOut(p)
				if err != nil {
					t.Fatalf("trial %d lane %d: scalar readout %v: %v", trial, l, p, err)
				}
				we, err := em.ReadOutWord(p, 0)
				if err != nil {
					t.Fatalf("trial %d: exec readout %v: %v", trial, p, err)
				}
				if got := we>>uint(l)&1 == 1; got != want {
					t.Fatalf("trial %d lane %d cell %v: exec %v, scalar %v\nprogram:\n%s",
						trial, l, p, got, want, pm.prog)
				}
			}
		}
	}
}

// TestExecBlockMatchesSingleWord pins the lane-block generalization: one
// B-word pass over many lanes must equal B independent single-word passes,
// at block widths of 4, 37 and 256 words (the default, an odd width and the
// stream's widest) and at block-edge lane counts (partial last words,
// single lane, full block). Scouting reads activate 2-4 rows, so the
// folds past the first row pair run on multi-word blocks too. One lane per
// word is also checked against the reference interpreter, which a fold
// that drops a row cannot satisfy on both sides of the comparison.
func TestExecBlockMatchesSingleWord(t *testing.T) {
	target := layout.Target{Arrays: 2, Rows: 6, Cols: 5}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		pm, defined := randomProgram(rng, target, 20)
		ex, err := Predecode(pm.prog, target)
		if err != nil {
			t.Fatalf("trial %d: predecode: %v\nprogram:\n%s", trial, err, pm.prog)
		}
		for _, B := range []int{4, 37, 256} {
			for _, lanes := range []int{1, 63, 64, 65, B*WordLanes - 1, B * WordLanes} {
				block := ex.NewMachine(B)
				block.Reset(lanes)
				in := block.InputBlock()
				// Random input words per 64-lane word, reused for the
				// single-word reference passes.
				aw := (lanes + WordLanes - 1) / WordLanes
				ref := make([]map[string]uint64, aw)
				for b := 0; b < aw; b++ {
					ref[b] = make(map[string]uint64, len(pm.names))
					for si, n := range pm.names {
						w := rng.Uint64()
						ref[b][n] = w
						if s, ok := ex.Slot(n); ok && s != si {
							t.Fatalf("slot order diverges: %q slot %d vs name index %d", n, s, si)
						}
						in[si*B+b] = w
					}
				}
				if err := block.Run(in); err != nil {
					t.Fatalf("trial %d lanes %d: block run: %v", trial, lanes, err)
				}
				for b := 0; b < aw; b++ {
					wordLanes := min(WordLanes, lanes-b*WordLanes)
					single := ex.NewMachine(1)
					single.Reset(wordLanes)
					if err := single.RunMap(ref[b]); err != nil {
						t.Fatalf("trial %d lanes %d word %d: single run: %v", trial, lanes, b, err)
					}
					l := b % wordLanes
					lane := make(map[string]bool, len(pm.names))
					for _, n := range pm.names {
						lane[n] = ref[b][n]>>uint(l)&1 == 1
					}
					sm := simref.NewMachine(target)
					if err := sm.Run(pm.prog, lane); err != nil {
						t.Fatalf("trial %d lanes %d word %d: scalar machine: %v", trial, lanes, b, err)
					}
					for _, p := range defined {
						wb, err := block.ReadOutWord(p, b)
						if err != nil {
							t.Fatalf("trial %d lanes %d word %d: block readout %v: %v", trial, lanes, b, p, err)
						}
						ws, err := single.ReadOutWord(p, 0)
						if err != nil {
							t.Fatalf("trial %d lanes %d word %d: single readout %v: %v", trial, lanes, b, p, err)
						}
						if wb != ws {
							t.Fatalf("trial %d B %d lanes %d word %d cell %v: block %#x, single %#x\nprogram:\n%s",
								trial, B, lanes, b, p, wb, ws, pm.prog)
						}
						want, err := sm.ReadOut(p)
						if err != nil {
							t.Fatalf("trial %d lanes %d word %d: scalar readout %v: %v", trial, lanes, b, p, err)
						}
						if got := wb>>uint(l)&1 == 1; got != want {
							t.Fatalf("trial %d B %d lanes %d lane %d cell %v: block %v, scalar %v\nprogram:\n%s",
								trial, B, lanes, b*WordLanes+l, p, got, want, pm.prog)
						}
					}
				}
			}
		}
	}
}

// TestExecStrictErrorsMatchScalar asserts the decode/run split raises
// exactly what the reference Machine raises, message-identical. Static
// program errors move to Predecode and unbound inputs stay at run time, but
// the text the caller sees is the same either way.
func TestExecStrictErrorsMatchScalar(t *testing.T) {
	target := layout.Target{Arrays: 2, Rows: 8, Cols: 4}
	cases := []struct {
		name, prog string
		inputs     map[string]bool
	}{
		{"undefined read", "Read [0][0][0]", nil},
		{"shift drops bit", "Write [0][3][0] <x>\nRead [0][3][0]\nShift [0] R[2]\nWrite [0][3][1]",
			map[string]bool{"x": true}},
		{"shift kills vacated bit", "Write [0][0][0] <x>\nRead [0][0][0]\nShift [0] R[1]\nWrite [0][0][1]",
			map[string]bool{"x": true}},
		{"unbound input", "Write [0][0][0] <mystery>", map[string]bool{}},
		{"unbound later instruction", "Write [0][0][0] <x>\nWrite [0][1,2][1] <y,z>",
			map[string]bool{"x": true, "y": true}},
		{"bad array", "Write [5][0][0] <x>", map[string]bool{"x": true}},
		{"bad row", "Read [0][0][0,99] [AND]", map[string]bool{"x": true}},
		{"undefined buffer write", "Write [0][0][0] <x>\nRead [0][0][0]\nWrite [1][0][0] @[0]\nNot [1][1]",
			map[string]bool{"x": true}},
	}
	for _, tc := range cases {
		prog, err := isa.ParseProgram(tc.prog)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		sm := simref.NewMachine(target)
		errS := sm.Run(prog, tc.inputs)
		for _, lanes := range []int{64, 5} {
			words := make(map[string]uint64)
			for n, v := range tc.inputs {
				var w uint64
				if v {
					w = ^uint64(0)
				}
				words[n] = w
			}
			_, errE := execRunWords(t, prog, target, lanes, words)
			if (errS == nil) != (errE == nil) {
				t.Errorf("%s (lanes %d): scalar err %v, exec err %v", tc.name, lanes, errS, errE)
				continue
			}
			if errS != nil && errS.Error() != errE.Error() {
				t.Errorf("%s (lanes %d): error mismatch\nscalar: %v\nexec:   %v", tc.name, lanes, errS, errE)
			}
		}
	}
}

// TestExecFaultTalliesPinned pins the geometric-skip sampler's exact
// output: per-lane flip tallies and faulted cell words for seeds 0..49 at
// 64 and 17 lanes, as one FNV-64a checksum. The values were recorded from
// the map-based sampler this one replaced; the RNG consumption order (per
// column, classes sharing one stream) is part of the determinism contract,
// so any drift in it changes the checksum.
func TestExecFaultTalliesPinned(t *testing.T) {
	const (
		wantSum   = 0x804dadfa4c1eccc3
		wantFlips = 59216
	)
	prog, target, _, laneIn := faultProgram(t)
	params := device.ParamsFor(device.STTMRAM)
	params.RelSDLRS, params.RelSDHRS = 0.5, 0.5 // inflate P_DF into testable range

	// Persist the faulted buffer into cells so readout observes values.
	cols := []int{0, 1, 2, 3, 4, 5, 6, 7}
	prog = append(prog, isa.Instruction{Kind: isa.KindWrite, Array: 0, Cols: cols, Rows: []int{3}})

	ex, err := Predecode(prog, target)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	put := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	flips := 0
	for seed := int64(0); seed < 50; seed++ {
		for _, lanes := range []int{64, 17} {
			em := ex.NewMachine(1)
			em.Reset(lanes)
			em.EnableFaultInjection(params, seed)
			if err := em.RunMap(laneIn); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < lanes; l++ {
				put(uint64(em.FaultCount(l)))
			}
			flips += em.TotalFaults()
			for _, c := range cols {
				w, err := em.ReadOutWord(layout.Place{Array: 0, Col: c, Row: 3}, 0)
				if err != nil {
					t.Fatal(err)
				}
				put(w)
			}
		}
	}
	if flips != wantFlips {
		t.Errorf("total flips %d, want %d", flips, wantFlips)
	}
	if got := h.Sum64(); got != wantSum {
		t.Errorf("tally checksum %#x, want %#x", got, uint64(wantSum))
	}
}

// TestExecRunMapLaneGuard pins the RunMap lane restriction as a panic.
func TestExecRunMapLaneGuard(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 4, Cols: 2}
	prog, _ := isa.ParseProgram("Write [0][0,1][0] <a,b>")
	ex, err := Predecode(prog, target)
	if err != nil {
		t.Fatal(err)
	}
	m := ex.NewMachine(2) // 128 lanes active
	defer func() {
		if recover() == nil {
			t.Fatal("RunMap over >64 lanes did not panic")
		}
	}()
	_ = m.RunMap(map[string]uint64{"a": 1, "b": 2})
}

// TestExecResetReuse runs one pooled machine through shrinking and growing
// lane counts and checks isolation between passes.
func TestExecResetReuse(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 4, Cols: 2}
	prog, err := isa.ParseProgram("Write [0][0,1][0] <a,b>")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Predecode(prog, target)
	if err != nil {
		t.Fatal(err)
	}
	m := ex.NewMachine(1)
	p := layout.Place{Array: 0, Col: 0, Row: 0}
	for i, lanes := range []int{64, 3, 64, 1, 17} {
		m.Reset(lanes)
		if m.TotalFaults() != 0 {
			t.Fatalf("pass %d: fault counts survived Reset", i)
		}
		want := rand.New(rand.NewSource(int64(i))).Uint64()
		if err := m.RunMap(map[string]uint64{"a": want, "b": ^want}); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		w, err := m.ReadOutWord(p, 0)
		if err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		if mask := m.MaskWord(0); w != want&mask {
			t.Fatalf("pass %d (lanes %d): readout %#x, want %#x", i, lanes, w, want&mask)
		}
	}
}

// TestExecSlotOrderMatchesBindings pins the invariant the facade relies on:
// Predecode's slot order is the program's first-use binding order,
// isa.Program.Bindings.
func TestExecSlotOrderMatchesBindings(t *testing.T) {
	target := layout.Target{Arrays: 2, Rows: 6, Cols: 5}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		pm, _ := randomProgram(rng, target, 16)
		ex, err := Predecode(pm.prog, target)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := pm.prog.Bindings()
		got := ex.InputNames()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d slots vs %d bindings", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d slot %d: %q vs %q", trial, i, got[i], want[i])
			}
			if s, ok := ex.Slot(want[i]); !ok || s != i {
				t.Fatalf("trial %d: Slot(%q) = %d,%v, want %d", trial, want[i], s, ok, i)
			}
		}
	}
}

// TestPredecodeClampsHostileSpace checks that an out-of-target coordinate
// fails decoding with Machine's message instead of inflating the
// decode-time allocations.
func TestPredecodeClampsHostileSpace(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 4, Cols: 4}
	prog := isa.Program{
		{Kind: isa.KindWrite, Array: 0, Cols: []int{1 << 30}, Rows: []int{0}, Bindings: []string{"x"}},
	}
	_, err := Predecode(prog, target)
	want := fmt.Sprintf("sim: instruction 0 (%s): sim: column %d outside target", prog[0], 1<<30)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}
