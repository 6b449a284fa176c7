package sim

import (
	"fmt"
	"strings"
	"testing"

	"sherlock/internal/arraymodel"
	"sherlock/internal/device"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/logic"
	"sherlock/internal/sim/simref"
)

func smallTarget() layout.Target { return layout.Target{Arrays: 2, Rows: 8, Cols: 4} }

// ran is one program run on one lane of the pre-decoded executor and on
// the reference interpreter, so each hand-checked value holds both.
type ran struct {
	em  *ExecMachine
	ref *simref.Machine
}

// runBoth executes the program on both engines. Their errors must agree
// word for word; the executor's is returned.
func runBoth(t *testing.T, text string, inputs map[string]bool) (ran, error) {
	t.Helper()
	p, err := isa.ParseProgram(text)
	if err != nil {
		t.Fatal(err)
	}
	r := ran{ref: simref.NewMachine(smallTarget())}
	errRef := r.ref.Run(p, inputs)
	words := make(map[string]uint64, len(inputs))
	for n, v := range inputs { //sherlock:allow rangemap (each name owns its entry)
		words[n] = 0
		if v {
			words[n] = 1
		}
	}
	ex, err := Predecode(p, smallTarget())
	if err == nil {
		r.em = ex.NewMachine(1)
		r.em.Reset(1)
		err = r.em.RunMap(words)
	}
	if fmt.Sprint(err) != fmt.Sprint(errRef) {
		t.Fatalf("executor error %v, reference error %v", err, errRef)
	}
	return r, err
}

func run(t *testing.T, text string, inputs map[string]bool) ran {
	t.Helper()
	r, err := runBoth(t, text, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// readOut reads one cell from both engines, failing the test if they
// disagree on its value or on whether it is defined.
func readOut(t *testing.T, m ran, p layout.Place) (bool, error) {
	t.Helper()
	want, errRef := m.ref.ReadOut(p)
	w, err := m.em.ReadOutWord(p, 0)
	if got := w&1 == 1; got != want || fmt.Sprint(err) != fmt.Sprint(errRef) {
		t.Fatalf("cell %v: executor (%v, %v), reference (%v, %v)", p, got, err, want, errRef)
	}
	return want, err
}

func cell(t *testing.T, m ran, a, c, r int) bool {
	t.Helper()
	v, err := readOut(t, m, layout.Place{Array: a, Col: c, Row: r})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHostWriteAndReadback(t *testing.T) {
	m := run(t, "Write [0][0,2][3] <a,b>", map[string]bool{"a": true, "b": false})
	if !cell(t, m, 0, 0, 3) || cell(t, m, 0, 2, 3) {
		t.Error("host write stored wrong bits")
	}
	if _, err := readOut(t, m, layout.Place{Array: 0, Col: 1, Row: 3}); err == nil {
		t.Error("readout of untouched cell should fail")
	}
}

func TestCIMReadComputesPerColumnOps(t *testing.T) {
	text := `
Write [0][0,1][0] <a0,b0>
Write [0][0,1][1] <a1,b1>
Read [0][0,1][0,1] [AND,OR]
Write [0][0,1][2]
`
	m := run(t, text, map[string]bool{"a0": true, "a1": true, "b0": true, "b1": false})
	if !cell(t, m, 0, 0, 2) { // AND(1,1)
		t.Error("AND column wrong")
	}
	if !cell(t, m, 0, 1, 2) { // OR(1,0)
		t.Error("OR column wrong")
	}
}

func TestMultiRowXorParity(t *testing.T) {
	text := `
Write [0][0][0] <x0>
Write [0][0][1] <x1>
Write [0][0][2] <x2>
Read [0][0][0,1,2] [XOR]
Write [0][0][3]
`
	m := run(t, text, map[string]bool{"x0": true, "x1": true, "x2": true})
	if !cell(t, m, 0, 0, 3) {
		t.Error("XOR3 of three ones should be 1")
	}
}

func TestNotAndShift(t *testing.T) {
	text := `
Write [0][0][0] <x>
Read [0][0][0]
Not [0][0]
Shift [0] R[2]
Write [0][2][1]
`
	m := run(t, text, map[string]bool{"x": false})
	if !cell(t, m, 0, 2, 1) {
		t.Error("NOT+shift chain wrong: want NOT(0)=1 moved to column 2")
	}
}

func TestShiftLeft(t *testing.T) {
	text := `
Write [0][3][0] <x>
Read [0][3][0]
Shift [0] L[3]
Write [0][0][1]
`
	m := run(t, text, map[string]bool{"x": true})
	if !cell(t, m, 0, 0, 1) {
		t.Error("left shift by 3 should move col 3 to col 0")
	}
}

func TestShiftDropsBitsAtEdge(t *testing.T) {
	// After shifting right by 2, column 3's old bit falls off; writing
	// from a now-undefined position must fail.
	text := `
Write [0][3][0] <x>
Read [0][3][0]
Shift [0] R[2]
Write [0][3][1]
`
	_, err := runBoth(t, text, map[string]bool{"x": true})
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("want undefined-bit error, got %v", err)
	}
}

func TestCrossArrayWrite(t *testing.T) {
	text := `
Write [0][1][0] <x>
Read [0][1][0]
Write [1][1][5] @[0]
`
	m := run(t, text, map[string]bool{"x": true})
	if !cell(t, m, 1, 1, 5) {
		t.Error("cross-array write lost the bit")
	}
}

func TestStrictModeCatchesUndefinedRead(t *testing.T) {
	if _, err := runBoth(t, "Read [0][0][0]", nil); err == nil {
		t.Error("read of undefined cell accepted")
	}
}

func TestRunErrorsIdentifyInstruction(t *testing.T) {
	text := "Write [0][0][0] <x>\nRead [0][0][7]\n"
	_, err := runBoth(t, text, map[string]bool{"x": true})
	if err == nil || !strings.Contains(err.Error(), "instruction 1") {
		t.Errorf("error %v should blame instruction 1", err)
	}
}

func TestRunRejectsOutOfTargetAddresses(t *testing.T) {
	for _, text := range []string{
		"Write [5][0][0] <x>",
		"Write [0][0][99] <x>",
		"Read [0][0][0,99] [AND]",
	} {
		if _, err := runBoth(t, text, map[string]bool{"x": true}); err == nil {
			t.Errorf("accepted %q", text)
		}
	}
}

func TestUnboundInputFails(t *testing.T) {
	if _, err := runBoth(t, "Write [0][0][0] <mystery>", map[string]bool{}); err == nil {
		t.Error("unbound input accepted")
	}
}

func TestFaultInjectionFlipsEventually(t *testing.T) {
	// STT-MRAM XOR has a high P_DF; over many trials faults must appear,
	// and with faults disabled results stay exact.
	prog := isa.Program{
		{Kind: isa.KindWrite, Cols: []int{0}, Rows: []int{0}, Bindings: []string{"a"}},
		{Kind: isa.KindWrite, Cols: []int{0}, Rows: []int{1}, Bindings: []string{"b"}},
		{Kind: isa.KindRead, Cols: []int{0}, Rows: []int{0, 1}, Ops: []logic.Op{logic.Xor}},
		{Kind: isa.KindWrite, Cols: []int{0}, Rows: []int{2}},
	}
	in := map[string]uint64{"a": 1, "b": 0}
	params := device.ParamsFor(device.STTMRAM)
	// Inflate variability to make flips frequent enough for a fast test.
	params.RelSDLRS, params.RelSDHRS = 0.5, 0.5
	ex, err := Predecode(prog, smallTarget())
	if err != nil {
		t.Fatal(err)
	}

	flips := 0
	for seed := int64(0); seed < 300; seed++ {
		m := ex.NewMachine(1)
		m.Reset(1)
		m.EnableFaultInjection(params, seed)
		if err := m.RunMap(in); err != nil {
			t.Fatal(err)
		}
		flips += m.FaultCount(0)
	}
	if flips == 0 {
		t.Error("no faults injected over 300 noisy trials")
	}

	m := ex.NewMachine(1)
	m.Reset(1)
	if err := m.RunMap(in); err != nil {
		t.Fatal(err)
	}
	if m.FaultCount(0) != 0 {
		t.Error("faults without fault injection enabled")
	}
	if w, err := m.ReadOutWord(layout.Place{Array: 0, Col: 0, Row: 2}, 0); err != nil || w != 1 {
		t.Errorf("fault-free XOR read %#x (%v), want 1", w, err)
	}
}

func TestMeasureBreakdownSums(t *testing.T) {
	text := `
Write [0][0][0] <a>
Write [0][0][1] <b>
Read [0][0][0,1] [AND]
Not [0][0]
Shift [0] R[1]
Write [0][1][2]
Write [1][1][2] @[0]
`
	p, err := isa.ParseProgram(text)
	if err != nil {
		t.Fatal(err)
	}
	cm := arraymodel.New(arraymodel.Config{Tech: device.ReRAM, Rows: 8, Cols: 4, DataWidth: 16})
	c, err := Measure(p, cm)
	if err != nil {
		t.Fatal(err)
	}
	if c.LatencyNS <= 0 || c.EnergyPJ <= 0 {
		t.Fatal("non-positive totals")
	}
	sumNS := c.ReadNS + c.WriteNS + c.ShiftNS + c.NotNS + c.HostNS
	if diff := c.LatencyNS - sumNS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("latency breakdown does not sum: %g vs %g", c.LatencyNS, sumNS)
	}
	if c.HostNS <= 0 || c.ShiftNS <= 0 || c.NotNS <= 0 {
		t.Error("expected every class to be populated")
	}
	if c.EDP() != c.EnergyPJ*c.LatencyNS {
		t.Error("EDP definition drifted")
	}
	// Cross-array write costs more than a plain write of same width.
	plain, _ := Measure(isa.Program{{Kind: isa.KindWrite, Cols: []int{1}, Rows: []int{2}}}, cm)
	cross, _ := Measure(isa.Program{{Kind: isa.KindWrite, Array: 1, Cols: []int{1}, Rows: []int{2}, HasSrcArray: true, SrcArray: 0}}, cm)
	if cross.LatencyNS <= plain.LatencyNS || cross.EnergyPJ <= plain.EnergyPJ {
		t.Error("cross-array write should cost extra")
	}
}

func TestMeasureRejectsInvalidProgram(t *testing.T) {
	cm := arraymodel.New(arraymodel.Config{Tech: device.ReRAM, Rows: 8, Cols: 4, DataWidth: 16})
	if _, err := Measure(isa.Program{{Kind: isa.KindShift}}, cm); err == nil {
		t.Error("invalid instruction accepted by Measure")
	}
}
