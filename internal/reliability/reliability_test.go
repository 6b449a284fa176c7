package reliability

import (
	"math"
	"testing"

	"sherlock/internal/device"
	"sherlock/internal/isa"
	"sherlock/internal/logic"
)

func cimRead(op logic.Op, rows ...int) isa.Instruction {
	return isa.Instruction{Kind: isa.KindRead, Cols: []int{0}, Rows: rows, Ops: []logic.Op{op}}
}

func TestAssessEmptyProgram(t *testing.T) {
	rep, err := Assess(nil, device.ParamsFor(device.ReRAM))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PApp != 0 || rep.SenseDecisions != 0 {
		t.Errorf("empty program: %+v", rep)
	}
}

func TestAssessSingleOpMatchesDevice(t *testing.T) {
	params := device.ParamsFor(device.STTMRAM)
	p := isa.Program{cimRead(logic.And, 0, 1)}
	rep, err := Assess(p, params)
	if err != nil {
		t.Fatal(err)
	}
	want := params.DecisionFailure(logic.And, 2)
	if math.Abs(rep.PApp-want) > 1e-15 {
		t.Errorf("PApp = %g, want %g", rep.PApp, want)
	}
	if rep.SenseDecisions != 1 {
		t.Errorf("decisions = %d, want 1", rep.SenseDecisions)
	}
	if rep.WorstClass.Class.Op != logic.And || rep.WorstClass.Count != 1 {
		t.Errorf("worst class %+v", rep.WorstClass)
	}
}

func TestAssessAccumulatesOverOps(t *testing.T) {
	params := device.ParamsFor(device.STTMRAM)
	one := isa.Program{cimRead(logic.Nand, 0, 1)}
	many := isa.Program{}
	for i := 0; i < 50; i++ {
		many = append(many, cimRead(logic.Nand, 0, 1))
	}
	r1, _ := Assess(one, params)
	r50, _ := Assess(many, params)
	if r50.PApp <= r1.PApp {
		t.Error("more ops must raise P_app")
	}
	// For small p, P_app(50) ~ 50 * p.
	if ratio := r50.PApp / r1.PApp; ratio < 45 || ratio > 51 {
		t.Errorf("accumulation ratio = %g, want ~50", ratio)
	}
}

func TestAssessPerColumnDecisionsCount(t *testing.T) {
	params := device.ParamsFor(device.ReRAM)
	wide := isa.Program{{
		Kind: isa.KindRead,
		Cols: []int{0, 1, 2},
		Rows: []int{0, 1},
		Ops:  []logic.Op{logic.And, logic.Or, logic.Xor},
	}}
	rep, err := Assess(wide, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SenseDecisions != 3 {
		t.Errorf("decisions = %d, want 3 (one per column)", rep.SenseDecisions)
	}
	if len(rep.Classes) != 3 {
		t.Errorf("classes = %d, want 3", len(rep.Classes))
	}
}

func TestAssessRejectsTooManyRows(t *testing.T) {
	params := device.ParamsFor(device.STTMRAM) // MaxRows = 4
	p := isa.Program{cimRead(logic.And, 0, 1, 2, 3, 4)}
	if _, err := Assess(p, params); err == nil {
		t.Error("5-row activation accepted on STT-MRAM")
	}
}

func TestNonSenseInstructionsDoNotCount(t *testing.T) {
	params := device.ParamsFor(device.ReRAM)
	p := isa.Program{
		{Kind: isa.KindWrite, Cols: []int{0}, Rows: []int{0}, Bindings: []string{"x"}},
		{Kind: isa.KindRead, Cols: []int{0}, Rows: []int{0}},
		{Kind: isa.KindNot, Cols: []int{0}},
		{Kind: isa.KindShift, ShiftBy: 1},
	}
	rep, err := Assess(p, params)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PApp != 0 || rep.SenseDecisions != 0 {
		t.Errorf("non-sense instructions contributed: %+v", rep)
	}
}

func TestTechOrderingAtAppLevel(t *testing.T) {
	// The same program must be far more reliable on ReRAM than STT-MRAM.
	var p isa.Program
	for i := 0; i < 100; i++ {
		p = append(p, cimRead(logic.Xor, 0, 1))
	}
	re, _ := Assess(p, device.ParamsFor(device.ReRAM))
	stt, _ := Assess(p, device.ParamsFor(device.STTMRAM))
	if re.PApp*100 > stt.PApp {
		t.Errorf("ReRAM P_app %g not clearly below STT-MRAM %g", re.PApp, stt.PApp)
	}
}
