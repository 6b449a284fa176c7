package bitvec

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// vec builds an n-bit vector with the given bits set.
func vec(n int, set ...int) *Vector {
	v := New(n)
	for _, i := range set {
		v.Set(i, true)
	}
	return v
}

// setBits lists the vector's set bits in ascending order.
func setBits(v *Vector) []int {
	var out []int
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			out = append(out, i)
		}
	}
	return out
}

func onesCount(v *Vector) int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// wordRange returns the inclusive word range holding the vector's set
// bits, or (Words(), -1) when it has none — the bounds the clusterer keeps
// per footprint.
func wordRange(v *Vector) (lo, hi int) {
	lo, hi = v.Words(), -1
	for i, w := range v.words {
		if w != 0 {
			lo, hi = min(lo, i), i
		}
	}
	return lo, hi
}

func TestNewIsZero(t *testing.T) {
	v := New(130)
	if v.Words() != 3 {
		t.Fatalf("Words = %d, want 3", v.Words())
	}
	for i := 0; i < 130; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
	}
	if onesCount(v) != 0 {
		t.Fatalf("OnesCount = %d, want 0", onesCount(v))
	}
}

func TestSetGet(t *testing.T) {
	v := New(200)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range idx {
		v.Set(i, true)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if got := onesCount(v); got != len(idx) {
		t.Errorf("OnesCount = %d, want %d", got, len(idx))
	}
	v.Set(63, false)
	if v.Get(63) {
		t.Error("bit 63 still set after clearing")
	}
}

// TestWordAccess covers the word-granular view the range operations index:
// Words counts the backing words, and bit i lives in word i/64.
func TestWordAccess(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 1, 64: 1, 65: 2, 130: 3} {
		if got := New(n).Words(); got != want {
			t.Errorf("New(%d).Words() = %d, want %d", n, got, want)
		}
	}
	v := vec(130, 3, 64, 129)
	if lo, hi := wordRange(v); lo != 0 || hi != 2 {
		t.Fatalf("word range = [%d,%d], want [0,2]", lo, hi)
	}
	if v.words[0] != 1<<3 || v.words[1] != 1 || v.words[2] != 1<<1 {
		t.Fatalf("words = %#x, want bits 3 | 64 | 129 in words 0, 1, 2", v.words)
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get out of range did not panic")
		}
	}()
	New(3).Get(3)
}

// TestLengthMismatchPanics checks that a word range past the end of the
// shorter vector panics instead of touching memory outside it.
func TestLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(a, b *Vector){
		"OrWithRange":             func(a, b *Vector) { a.OrWithRange(b, 0, 1) },
		"OrWithRangeCountNew":     func(a, b *Vector) { a.OrWithRangeCountNew(b, 0, 1) },
		"IntersectOnesCountRange": func(a, b *Vector) { IntersectOnesCountRange(a, b, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a range past a 64-bit vector did not panic", name)
				}
			}()
			f(New(64), New(128))
		}()
	}
}

// TestBinaryOps checks the two-operand operations on one word against the
// 0b1100 / 0b1010 truth table.
func TestBinaryOps(t *testing.T) {
	a, b := vec(4, 2, 3), vec(4, 1, 3)
	if got := IntersectOnesCountRange(a, b, 0, 0); got != 1 {
		t.Errorf("|a&b| = %d, want 1", got)
	}
	or := vec(4, 2, 3)
	or.OrWithRange(b, 0, 0)
	if got := setBits(or); !slices.Equal(got, []int{1, 2, 3}) {
		t.Errorf("a|b = %v, want [1 2 3]", got)
	}
	if got := vec(4, 2, 3).OrWithRangeCountNew(b, 0, 0); got != 1 {
		t.Errorf("new bits of a|b = %d, want 1", got)
	}
}

// TestFoldN folds three vectors into an accumulator and checks the union
// and the per-step count of newly set bits.
func TestFoldN(t *testing.T) {
	acc := New(3)
	var counts []int
	for _, v := range []*Vector{vec(3, 0, 1, 2), vec(3, 0, 2), vec(3, 2)} {
		counts = append(counts, acc.OrWithRangeCountNew(v, 0, 0))
	}
	if !slices.Equal(counts, []int{3, 0, 0}) || !slices.Equal(setBits(acc), []int{0, 1, 2}) {
		t.Errorf("fold counts %v union %v, want [3 0 0] [0 1 2]", counts, setBits(acc))
	}
	acc = New(3)
	counts = counts[:0]
	for _, v := range []*Vector{vec(3, 2), vec(3, 0, 2), vec(3, 0, 1, 2)} {
		counts = append(counts, acc.OrWithRangeCountNew(v, 0, 0))
	}
	if !slices.Equal(counts, []int{1, 1, 1}) {
		t.Errorf("reverse fold counts %v, want [1 1 1]", counts)
	}
}

func TestOrWithRange(t *testing.T) {
	dst := vec(256, 5, 200)
	src := vec(256, 70, 130, 131)
	dst.OrWithRange(src, 1, 2)
	if got := setBits(dst); !slices.Equal(got, []int{5, 70, 130, 131, 200}) {
		t.Errorf("OrWithRange = %v", got)
	}
	// Bits of src outside the range are not copied.
	dst = New(256)
	dst.OrWithRange(src, 2, 3)
	if got := setBits(dst); !slices.Equal(got, []int{130, 131}) {
		t.Errorf("OrWithRange over words 2..3 = %v, want [130 131]", got)
	}
	if got := setBits(src); !slices.Equal(got, []int{70, 130, 131}) {
		t.Errorf("source modified: %v", got)
	}
}

func TestOrWithRangeCountNew(t *testing.T) {
	dst := vec(256, 70, 200)
	src := vec(256, 3, 70, 71, 130)
	if got := dst.OrWithRangeCountNew(src, 1, 2); got != 2 {
		t.Errorf("newly set = %d, want 2 (71 and 130; 70 was set, 3 is outside)", got)
	}
	if got := setBits(dst); !slices.Equal(got, []int{70, 71, 130, 200}) {
		t.Errorf("union = %v", got)
	}
	if got := dst.OrWithRangeCountNew(src, 1, 2); got != 0 {
		t.Errorf("second union newly set %d, want 0", got)
	}
}

func TestIntersectOnesCountRange(t *testing.T) {
	a := vec(256, 1, 64, 65, 130, 255)
	b := vec(256, 1, 65, 130, 131, 255)
	for _, c := range []struct{ lo, hi, want int }{
		{0, 3, 4}, {1, 2, 2}, {1, 1, 1}, {3, 3, 1}, {2, 1, 0},
	} {
		if got := IntersectOnesCountRange(a, b, c.lo, c.hi); got != c.want {
			t.Errorf("|a&b| over words [%d,%d] = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestZeroRange(t *testing.T) {
	v := vec(256, 0, 64, 127, 128, 255)
	v.ZeroRange(1, 2)
	if got := setBits(v); !slices.Equal(got, []int{0, 255}) {
		t.Errorf("after ZeroRange(1,2) = %v, want [0 255]", got)
	}
	v.ZeroRange(0, 3)
	if onesCount(v) != 0 {
		t.Errorf("ZeroRange over every word left %v", setBits(v))
	}
}

// Property: folding random multi-word vectors with the range operations,
// each bounded by the words where the source has bits (as the clusterer
// does), matches a bit-by-bit union and intersection.
func TestQuickFoldMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		vs := make([]*Vector, 2+rng.Intn(4))
		for i := range vs {
			vs[i] = New(n)
			for j := 0; j < n; j++ {
				vs[i].Set(j, rng.Intn(4) == 0)
			}
		}
		acc := New(n)
		want := make([]bool, n)
		for _, v := range vs {
			lo, hi := wordRange(v)
			if hi < 0 {
				continue
			}
			inter, fresh := 0, 0
			for j := 0; j < n; j++ {
				if v.Get(j) && want[j] {
					inter++
				}
				if v.Get(j) && !want[j] {
					fresh++
					want[j] = true
				}
			}
			if got := IntersectOnesCountRange(acc, v, lo, hi); got != inter {
				t.Fatalf("trial %d: intersection %d, want %d", trial, got, inter)
			}
			if got := acc.OrWithRangeCountNew(v, lo, hi); got != fresh {
				t.Fatalf("trial %d: newly set %d, want %d", trial, got, fresh)
			}
		}
		for j := 0; j < n; j++ {
			if acc.Get(j) != want[j] {
				t.Fatalf("trial %d bit %d: union mismatch", trial, j)
			}
		}
		if lo, hi := wordRange(acc); hi >= 0 {
			acc.ZeroRange(lo, hi)
		}
		if onesCount(acc) != 0 {
			t.Fatalf("trial %d: ZeroRange over the union's words left bits", trial)
		}
	}
}
