package aes

import (
	"fmt"
	"testing"

	"sherlock/internal/dfg"
)

func TestGF22FieldAxioms(t *testing.T) {
	// GF(2^2) multiplication: W^2 = W+1, associativity, inverses.
	if mul2(2, 2) != 3 { // W*W = W+1
		t.Errorf("W*W = %d, want 3", mul2(2, 2))
	}
	for a := byte(0); a < 4; a++ {
		for b := byte(0); b < 4; b++ {
			for c := byte(0); c < 4; c++ {
				if mul2(a, mul2(b, c)) != mul2(mul2(a, b), c) {
					t.Fatal("GF(2^2) not associative")
				}
			}
			if mul2(a, b) != mul2(b, a) {
				t.Fatal("GF(2^2) not commutative")
			}
		}
		if a != 0 && mul2(a, sq2(a)) != 1 {
			t.Errorf("a^3 != 1 for a=%d", a)
		}
	}
}

func TestGF24Irreducibility(t *testing.T) {
	// x^2 + x + nu must have no root in GF(2^2).
	for r := byte(0); r < 4; r++ {
		if sq2(r)^r^nu == 0 {
			t.Fatalf("x^2+x+nu has root %d: modulus reducible", r)
		}
	}
	// Every nonzero GF(2^4) element must have an inverse.
	for a := byte(1); a < 16; a++ {
		if mul4(a, inv4(a)) != 1 {
			t.Errorf("inv4(%d) wrong", a)
		}
	}
	if inv4(0) != 0 {
		t.Error("inv4(0) must be 0")
	}
}

func TestGF28TowerField(t *testing.T) {
	towerInit()
	// Lambda's irreducibility over GF(2^4).
	for r := byte(0); r < 16; r++ {
		if sq4(r)^r^lambda == 0 {
			t.Fatalf("lambda=%d reducible (root %d)", lambda, r)
		}
	}
	// Inverses across the whole field.
	for a := 1; a < 256; a++ {
		if mul8(byte(a), inv8(byte(a))) != 1 {
			t.Fatalf("inv8(%#02x) wrong", a)
		}
	}
	if inv8(0) != 0 {
		t.Error("inv8(0) must be 0")
	}
}

func TestIsomorphismIsFieldHomomorphism(t *testing.T) {
	towerInit()
	// phi(ab) == phi(a) phi(b) and phi(a^b) == phi(a)^phi(b) on a sweep.
	for a := 0; a < 256; a += 7 {
		for b := 0; b < 256; b += 11 {
			pa, pb := applyMatrix(isoM, byte(a)), applyMatrix(isoM, byte(b))
			if applyMatrix(isoM, gmul(byte(a), byte(b))) != mul8(pa, pb) {
				t.Fatalf("phi not multiplicative at (%d,%d)", a, b)
			}
			if applyMatrix(isoM, byte(a)^byte(b)) != pa^pb {
				t.Fatalf("phi not additive at (%d,%d)", a, b)
			}
		}
	}
	if applyMatrix(isoM, 1) != 1 {
		t.Error("phi(1) != 1")
	}
	// M and M^-1 invert each other.
	for a := 0; a < 256; a++ {
		if applyMatrix(isoMInv, applyMatrix(isoM, byte(a))) != byte(a) {
			t.Fatalf("M^-1 M != I at %d", a)
		}
	}
}

func TestSBoxTowerMatchesSBox(t *testing.T) {
	for x := 0; x < 256; x++ {
		if SBoxTower(byte(x)) != SBox(byte(x)) {
			t.Fatalf("SBoxTower(%#02x) = %#02x, want %#02x", x, SBoxTower(byte(x)), SBox(byte(x)))
		}
	}
}

func TestTowerCircuitExhaustive(t *testing.T) {
	b := dfg.NewBuilder()
	var in [8]dfg.Val
	for i := range in {
		in[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	out := sboxTowerCircuit(b, in)
	for i, v := range out {
		b.Output(fmt.Sprintf("y%d", i), v)
	}
	g := b.Graph()
	for x := 0; x < 256; x++ {
		assign := make(map[string]bool, 8)
		for i := 0; i < 8; i++ {
			assign[fmt.Sprintf("x%d", i)] = x>>uint(i)&1 == 1
		}
		res, err := dfg.EvaluateByName(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		var got byte
		for i := 0; i < 8; i++ {
			if res[fmt.Sprintf("y%d", i)] {
				got |= 1 << uint(i)
			}
		}
		if got != SBox(byte(x)) {
			t.Fatalf("circuit S-box(%#02x) = %#02x, want %#02x", x, got, SBox(byte(x)))
		}
	}
}

func TestTowerCircuitIsSmall(t *testing.T) {
	b := dfg.NewBuilder()
	var in [8]dfg.Val
	for i := range in {
		in[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	out := sboxTowerCircuit(b, in)
	for i, v := range out {
		b.Output(fmt.Sprintf("y%d", i), v)
	}
	st := b.Graph().ComputeStats()
	if st.Ops > 250 {
		t.Errorf("tower S-box uses %d ops, expected a compact circuit (<250)", st.Ops)
	}
	t.Logf("tower S-box: %d ops (%v)", st.Ops, st.ByOp)
}

func TestBuildWithSynthesizedSBoxStillCorrect(t *testing.T) {
	cfg := Config{Rounds: 1, SBox: SBoxSynthesized}
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pt, key [16]byte
	for i := range pt {
		pt[i], key[i] = byte(3*i+1), byte(17*i+5)
	}
	in, _ := Assignments(cfg, pt, key)
	outs, err := dfg.EvaluateByName(g, in)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := CiphertextFrom(outs)
	if want := EncryptReference(pt, key, 1); ct != want {
		t.Fatalf("%x != %x", ct, want)
	}
}

func TestVariantStrings(t *testing.T) {
	if SBoxTowerField.String() == SBoxSynthesized.String() {
		t.Error("variant strings collide")
	}
}
