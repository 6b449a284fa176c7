package verify_test

import (
	"strings"
	"testing"

	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/sim"
	"sherlock/internal/verify"
)

func parse(t *testing.T, text string) isa.Program {
	t.Helper()
	p, err := isa.ParseProgram(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// findings returns the report's findings with the given code.
func findings(r *verify.Report, code string) []verify.Finding {
	var out []verify.Finding
	for _, f := range r.Findings {
		if f.Code == code {
			out = append(out, f)
		}
	}
	return out
}

// TestErrorTextMatchesPredecode pins the contract the differential fuzz in
// internal/sim checks at scale: for rejected programs, Report.Err() is the
// byte-identical error sim.Predecode raises.
func TestErrorTextMatchesPredecode(t *testing.T) {
	target := layout.Target{Arrays: 2, Rows: 8, Cols: 4}
	cases := []struct {
		name string
		prog isa.Program
	}{
		{"undefined read", parse(t, "Read [0][0][0]")},
		{"bad array", parse(t, "Write [5][0][0] <x>")},
		{"bad source array", parse(t, "Write [0][0][0] <x>\nRead [0][0][0]\nWrite [1][0][0] @[9]")},
		{"bad row", parse(t, "Read [0][0][0,99] [AND]")},
		{"bad column", parse(t, "Write [0][99][0] <x>")},
		{"bad not column", parse(t, "Write [0][0][0] <x>\nRead [0][0][0]\nNot [0][99]")},
		{"shift drops bit", parse(t, "Write [0][3][0] <x>\nRead [0][3][0]\nShift [0] R[2]\nWrite [0][3][1]")},
		{"shift kills vacated bit", parse(t, "Write [0][0][0] <x>\nRead [0][0][0]\nShift [0] R[1]\nWrite [0][0][1]")},
		{"undefined buffer write", parse(t, "Write [0][0][0] <x>\nRead [0][0][0]\nWrite [1][0][0] @[0]\nNot [1][1]")},
		{"undefined not", parse(t, "Not [0][1]")},
		{"undefined cim operand", parse(t, "Write [0][0][0] <x>\nRead [0][0][0,1] [AND]")},
		{"structurally invalid", isa.Program{{Kind: isa.KindRead, Array: 0}}},
		{"plain read with ops", isa.Program{{Kind: isa.KindRead, Array: 0, Cols: []int{0}, Rows: []int{0},
			Ops: nil}, {Kind: isa.KindShift, Array: 0}}},
		{"hostile coordinate", isa.Program{{Kind: isa.KindWrite, Array: 0, Cols: []int{1 << 30},
			Rows: []int{0}, Bindings: []string{"x"}}}},
		{"clean", parse(t, "Write [0][0][0] <x>\nRead [0][0][0]\nWrite [0][0][1]")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := verify.Program(tc.prog, target)
			_, errD := sim.Predecode(tc.prog, target)
			errV := rep.Err()
			if (errD == nil) != (errV == nil) {
				t.Fatalf("predecode err %v, verifier err %v", errD, errV)
			}
			if errD != nil && errD.Error() != errV.Error() {
				t.Fatalf("error text mismatch\npredecode: %v\nverifier:  %v", errD, errV)
			}
			if (errV == nil) != rep.OK() {
				t.Fatalf("OK() = %v with Err() = %v", rep.OK(), errV)
			}
		})
	}
}

// TestBadTargetMatchesPredecode pins the degenerate-geometry path.
func TestBadTargetMatchesPredecode(t *testing.T) {
	prog := parse(t, "Write [0][0][0] <x>")
	bad := layout.Target{Arrays: 0, Rows: 1, Cols: 0}
	rep := verify.Program(prog, bad)
	_, errD := sim.Predecode(prog, bad)
	if errD == nil || rep.Err() == nil || errD.Error() != rep.Err().Error() {
		t.Fatalf("predecode: %v, verifier: %v", errD, rep.Err())
	}
	if len(findings(rep, verify.CodeBadTarget)) != 1 {
		t.Fatalf("want one bad-target finding, got %v", rep.Findings)
	}
}

func TestDeadStoreOnOverwrite(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 8, Cols: 4}
	// Instruction 1 loads buffer bit [0][0]; instruction 2 overwrites it
	// before anything consumed it.
	prog := parse(t, `
Write [0][0][0] <x>
Read [0][0][0]
Read [0][0][0]
Write [0][0][1]
`)
	rep := verify.Program(prog, target)
	if !rep.OK() {
		t.Fatalf("unexpected errors: %v", rep.Findings)
	}
	ds := findings(rep, verify.CodeDeadStore)
	if len(ds) != 1 || ds[0].Instr != 1 || !strings.Contains(ds[0].Msg, "instruction 2 overwrites") {
		t.Fatalf("dead store findings = %v", ds)
	}
}

func TestDeadStoreOnShiftOut(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 8, Cols: 4}
	prog := parse(t, `
Write [0][3][0] <x>
Read [0][3][0]
Shift [0] R[2]
`)
	rep := verify.Program(prog, target)
	if !rep.OK() {
		t.Fatalf("unexpected errors: %v", rep.Findings)
	}
	ds := findings(rep, verify.CodeDeadStore)
	if len(ds) != 1 || ds[0].Instr != 1 || !strings.Contains(ds[0].Msg, "shifts it out") {
		t.Fatalf("dead store findings = %v", ds)
	}
}

func TestWriteAfterWriteShadow(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 8, Cols: 4}
	prog := parse(t, `
Write [0][0][0] <x>
Write [0][0][0] <y>
Read [0][0][0]
Write [0][0][1]
`)
	rep := verify.Program(prog, target)
	if !rep.OK() {
		t.Fatalf("unexpected errors: %v", rep.Findings)
	}
	waw := findings(rep, verify.CodeWAWShadow)
	if len(waw) != 1 || waw[0].Instr != 0 || !strings.Contains(waw[0].Msg, "instruction 1") {
		t.Fatalf("waw findings = %v", waw)
	}
	// The shadowed input never reached a read either.
	unused := findings(rep, verify.CodeUnusedInput)
	if len(unused) != 1 || !strings.Contains(unused[0].Msg, `"x"`) {
		t.Fatalf("unused-input findings = %v", unused)
	}
}

func TestRecycledRowIsNotAShadow(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 8, Cols: 4}
	// The first value IS read before the overwrite — the row-recycling
	// pattern the mapper emits must stay warning-free.
	prog := parse(t, `
Write [0][0][0] <x>
Read [0][0][0]
Write [0][0][1]
Write [0][0][0] <y>
Read [0][0][0]
Write [0][0][2]
`)
	rep := verify.Program(prog, target)
	if ws := findings(rep, verify.CodeWAWShadow); len(ws) != 0 {
		t.Fatalf("recycled row flagged as shadow: %v", ws)
	}
	if !rep.Clean() {
		t.Fatalf("expected clean report, got %v", rep.Findings)
	}
}

func TestUnusedInput(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 8, Cols: 4}
	prog := parse(t, "Write [0][0,1][0] <x,y>\nRead [0][0][0]\nWrite [0][0][1]")
	rep := verify.Program(prog, target)
	unused := findings(rep, verify.CodeUnusedInput)
	if len(unused) != 1 || unused[0].Instr != 0 || !strings.Contains(unused[0].Msg, `"y"`) {
		t.Fatalf("unused-input findings = %v", unused)
	}
}

func TestBufferLivenessAtEnd(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 8, Cols: 4}
	prog := parse(t, "Write [0][0][0] <x>\nRead [0][0][0]")
	rep := verify.Program(prog, target)
	live := findings(rep, verify.CodeBufLive)
	if len(live) != 1 || live[0].Instr != 1 || live[0].Severity != verify.SevInfo {
		t.Fatalf("buf-liveness findings = %v", live)
	}
	if !rep.Clean() { // info does not spoil Clean
		t.Fatalf("info finding spoiled Clean: %v", rep.Findings)
	}
}

func TestRowActivationLimit(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 8, Cols: 4}
	prog := parse(t, `
Write [0][0][0] <a>
Write [0][0][1] <b>
Write [0][0][2] <c>
Read [0][0][0,1,2] [AND]
Write [0][0][3]
`)
	rep := verify.ProgramOpts(prog, target, verify.Options{MaxRows: 2})
	rl := findings(rep, verify.CodeRowLimit)
	if len(rl) != 1 || rl[0].Instr != 3 || !strings.Contains(rl[0].Msg, "activates 3 rows") {
		t.Fatalf("row-limit findings = %v", rl)
	}
	if rep2 := verify.ProgramOpts(prog, target, verify.Options{MaxRows: 3}); len(findings(rep2, verify.CodeRowLimit)) != 0 {
		t.Fatalf("limit 3 should not warn")
	}
}

// TestBindingsFirstUseOrder pins the binding-order contract against both
// the canonical isa order and sim.Predecode's slot table.
func TestBindingsFirstUseOrder(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 8, Cols: 4}
	prog := parse(t, `
Write [0][0,1][0] <b,a>
Write [0][0,1][1] <a,c>
Write [0][2][0] <b>
`)
	rep := verify.Program(prog, target)
	want := prog.Bindings()
	got := rep.Bindings()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("verifier bindings %v, isa bindings %v", got, want)
	}
	ex, err := sim.Predecode(prog, target)
	if err != nil {
		t.Fatal(err)
	}
	if slots := ex.InputNames(); strings.Join(slots, ",") != strings.Join(want, ",") {
		t.Fatalf("predecode slots %v, isa bindings %v", slots, want)
	}
}

func TestFindingString(t *testing.T) {
	f := verify.Finding{Instr: 3, Severity: verify.SevError, Code: verify.CodeUndefRead, Msg: "read of undefined cell [0][1][2]"}
	if got := f.String(); got != "instr 3: error[undef-read]: read of undefined cell [0][1][2]" {
		t.Fatalf("String() = %q", got)
	}
	pf := verify.Finding{Instr: -1, Severity: verify.SevWarning, Code: verify.CodeUnusedInput, Msg: "m"}
	if got := pf.String(); got != "program: warning[unused-input]: m" {
		t.Fatalf("String() = %q", got)
	}
}

// TestRecoveryLimitsCascade checks that one undefined read does not drown
// the report: the verifier assumes the read's intent and keeps going, so a
// second, independent bug is still reported.
func TestRecoveryLimitsCascade(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 8, Cols: 4}
	prog := parse(t, `
Read [0][0][0]
Write [0][0][1]
Read [0][1][0]
Write [0][1][1]
`)
	rep := verify.Program(prog, target)
	ur := findings(rep, verify.CodeUndefRead)
	if len(ur) != 2 || ur[0].Instr != 0 || ur[1].Instr != 2 {
		t.Fatalf("undef-read findings = %v", ur)
	}
}
