package symword

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sherlock/internal/dfg"
)

// evalWord evaluates a circuit with two input words bound to integers and
// returns the named output word as an integer.
type harness struct {
	b      *dfg.Builder
	x, y   Word
	widthX int
	widthY int
}

func newHarness(wx, wy int) *harness {
	b := dfg.NewBuilder()
	h := &harness{b: b, widthX: wx, widthY: wy}
	h.x = Inputs(b, "x", wx)
	h.y = Inputs(b, "y", wy)
	return h
}

func (h *harness) run(t *testing.T, xv, yv uint64, outWidth int) uint64 {
	t.Helper()
	in := make(map[string]bool)
	for i := 0; i < h.widthX; i++ {
		in[fmt.Sprintf("x%d", i)] = xv>>uint(i)&1 == 1
	}
	for i := 0; i < h.widthY; i++ {
		in[fmt.Sprintf("y%d", i)] = yv>>uint(i)&1 == 1
	}
	res, err := dfg.EvaluateByName(h.b.Graph(), in)
	if err != nil {
		t.Fatal(err)
	}
	var out uint64
	for i := 0; i < outWidth; i++ {
		if res[fmt.Sprintf("o%d", i)] {
			out |= 1 << uint(i)
		}
	}
	return out
}

func TestAddMatchesInteger(t *testing.T) {
	h := newHarness(8, 8)
	Outputs(h.b, "o", Add(h.b, h.x, h.y))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, c := uint64(rng.Intn(256)), uint64(rng.Intn(256))
		if got, want := h.run(t, a, c, 9), a+c; got != want {
			t.Fatalf("%d+%d = %d, want %d", a, c, got, want)
		}
	}
}

func TestAddModWraps(t *testing.T) {
	h := newHarness(4, 4)
	Outputs(h.b, "o", AddMod(h.b, h.x, h.y))
	if got := h.run(t, 9, 9, 4); got != (9+9)%16 {
		t.Fatalf("AddMod(9,9) = %d, want 2", got)
	}
}

func TestSubTwosComplement(t *testing.T) {
	h := newHarness(8, 8)
	Outputs(h.b, "o", Sub(h.b, h.x, h.y))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, c := uint64(rng.Intn(256)), uint64(rng.Intn(256))
		want := (a - c) & 0xFF
		if got := h.run(t, a, c, 8); got != want {
			t.Fatalf("%d-%d = %d, want %d", a, c, got, want)
		}
	}
}

func TestNegAndAbs(t *testing.T) {
	b := dfg.NewBuilder()
	x := Inputs(b, "x", 6)
	Outputs(b, "n", Neg(b, x))
	Outputs(b, "a", Abs(b, x))
	g := b.Graph()
	for v := 0; v < 64; v++ {
		in := make(map[string]bool)
		for i := 0; i < 6; i++ {
			in[fmt.Sprintf("x%d", i)] = v>>uint(i)&1 == 1
		}
		res, err := dfg.EvaluateByName(g, in)
		if err != nil {
			t.Fatal(err)
		}
		var neg, abs uint64
		for i := 0; i < 6; i++ {
			if res[fmt.Sprintf("n%d", i)] {
				neg |= 1 << uint(i)
			}
			if res[fmt.Sprintf("a%d", i)] {
				abs |= 1 << uint(i)
			}
		}
		if want := uint64(-v) & 63; neg != want {
			t.Fatalf("neg(%d) = %d, want %d", v, neg, want)
		}
		signed := int64(v)
		if v >= 32 {
			signed = int64(v) - 64
		}
		wantAbs := uint64(signed) & 63
		if signed < 0 {
			wantAbs = uint64(-signed) & 63
		}
		if abs != wantAbs {
			t.Fatalf("abs(%d as signed %d) = %d, want %d", v, signed, abs, wantAbs)
		}
	}
}

func TestBitwiseOps(t *testing.T) {
	h := newHarness(8, 8)
	Outputs(h.b, "o", Xor(h.b, h.x, h.y))
	if got := h.run(t, 0b1100, 0b1010, 8); got != 0b0110 {
		t.Fatalf("xor = %b", got)
	}
	h2 := newHarness(8, 8)
	Outputs(h2.b, "o", And(h2.b, h2.x, h2.y))
	if got := h2.run(t, 0b1100, 0b1010, 8); got != 0b1000 {
		t.Fatalf("and = %b", got)
	}
	h3 := newHarness(8, 8)
	Outputs(h3.b, "o", Or(h3.b, Not(h3.b, h3.x), h3.y))
	if got := h3.run(t, 0xF0, 0x01, 8); got != 0x0F|0x01 {
		t.Fatalf("or/not = %x", got)
	}
}

func TestExtendAndShift(t *testing.T) {
	b := dfg.NewBuilder()
	x := Inputs(b, "x", 4)
	ze := ZeroExtend(b, x, 6)
	if len(ze) != 6 {
		t.Fatal("zero extend width")
	}
	if c, v := ze[5].IsConst(); !c || v {
		t.Fatal("zero extension bits must be constant false")
	}
	sl := ShiftLeft(b, x, 2)
	if len(sl) != 6 || sl[2] != x[0] {
		t.Fatal("shift left wiring wrong")
	}
	if c, v := sl[0].IsConst(); !c || v {
		t.Fatal("shifted-in bits must be zero")
	}
}

func TestComparatorsExhaustive(t *testing.T) {
	h := newHarness(4, 4)
	h.b.Output("lt", LessThan(h.b, h.x, h.y))
	h.b.Output("eq", Equal(h.b, h.x, h.y))
	g := h.b.Graph()
	for a := uint64(0); a < 16; a++ {
		for c := uint64(0); c < 16; c++ {
			in := make(map[string]bool)
			for i := 0; i < 4; i++ {
				in[fmt.Sprintf("x%d", i)] = a>>uint(i)&1 == 1
				in[fmt.Sprintf("y%d", i)] = c>>uint(i)&1 == 1
			}
			res, err := dfg.EvaluateByName(g, in)
			if err != nil {
				t.Fatal(err)
			}
			if res["lt"] != (a < c) || res["eq"] != (a == c) {
				t.Fatalf("compare(%d,%d): lt=%v eq=%v", a, c, res["lt"], res["eq"])
			}
		}
	}
}

func TestGEConstExhaustive(t *testing.T) {
	for _, k := range []uint64{0, 1, 5, 8, 15, 16, 31} {
		b := dfg.NewBuilder()
		x := Inputs(b, "x", 4)
		v := GEConst(b, x, k)
		if c, cv := v.IsConst(); c {
			// k=0 folds to constant true; k>=16 to constant false.
			if k == 0 && !cv || k >= 16 && cv {
				t.Fatalf("GEConst k=%d folded to %v", k, cv)
			}
			if k != 0 && k < 16 {
				t.Fatalf("GEConst k=%d folded unexpectedly", k)
			}
			continue
		}
		b.Output("ge", v)
		g := b.Graph()
		for a := uint64(0); a < 16; a++ {
			in := make(map[string]bool)
			for i := 0; i < 4; i++ {
				in[fmt.Sprintf("x%d", i)] = a>>uint(i)&1 == 1
			}
			res, err := dfg.EvaluateByName(g, in)
			if err != nil {
				t.Fatal(err)
			}
			if res["ge"] != (a >= k) {
				t.Fatalf("GE(%d, %d) = %v", a, k, res["ge"])
			}
		}
	}
}

func TestMuxWords(t *testing.T) {
	b := dfg.NewBuilder()
	s := b.Input("s")
	x := Inputs(b, "x", 4)
	y := Inputs(b, "y", 4)
	Outputs(b, "o", Mux(b, s, x, y))
	g := b.Graph()
	in := map[string]bool{"s": true}
	for i := 0; i < 4; i++ {
		in[fmt.Sprintf("x%d", i)] = i%2 == 0
		in[fmt.Sprintf("y%d", i)] = i%2 == 1
	}
	res, _ := dfg.EvaluateByName(g, in)
	for i := 0; i < 4; i++ {
		if res[fmt.Sprintf("o%d", i)] != (i%2 == 0) {
			t.Fatal("mux selected wrong word")
		}
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	b := dfg.NewBuilder()
	x := Inputs(b, "x", 4)
	y := Inputs(b, "y", 5)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on width mismatch")
		}
	}()
	Add(b, x, y)
}

// Property: |x| == |-x| for random 8-bit two's complement values.
func TestQuickAbsSymmetry(t *testing.T) {
	f := func(v uint8) bool {
		b := dfg.NewBuilder()
		x := Inputs(b, "x", 8)
		Outputs(b, "a", Abs(b, x))
		Outputs(b, "b", Abs(b, Neg(b, x)))
		in := make(map[string]bool)
		for i := 0; i < 8; i++ {
			in[fmt.Sprintf("x%d", i)] = v>>uint(i)&1 == 1
		}
		res, err := dfg.EvaluateByName(b.Graph(), in)
		if err != nil {
			return false
		}
		// -128 negates to itself; |x| == |-x| still holds bitwise.
		for i := 0; i < 8; i++ {
			if res[fmt.Sprintf("a%d", i)] != res[fmt.Sprintf("b%d", i)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
