package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// vetSrc writes src as pkg/x.go under a temp root and runs the analyzer
// over it, returning the exit code and stdout.
func vetSrc(t *testing.T, src string) (int, string) {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "pkg")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-root", root, "pkg"}, &out, &errb)
	if errb.Len() > 0 && code != 2 {
		t.Fatalf("unexpected stderr: %s", errb.String())
	}
	return code, out.String()
}

func TestVetRangeOverMap(t *testing.T) {
	code, out := vetSrc(t, `package pkg
func f(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`)
	if code != 1 || !strings.Contains(out, "rangemap: range over map map[string]int") {
		t.Fatalf("code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "x.go:4:2: rangemap") {
		t.Fatalf("finding not anchored at the range statement: %q", out)
	}
}

func TestVetRangeOverSliceIsFine(t *testing.T) {
	code, out := vetSrc(t, `package pkg
func f(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}
`)
	if code != 0 {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestVetAllowDirective(t *testing.T) {
	for _, src := range []string{
		// Same line.
		`package pkg
func f(m map[string]int) (s int) {
	for _, v := range m { //sherlock:allow rangemap
		s += v
	}
	return
}
`,
		// Line above, with trailing commentary after the check name.
		`package pkg
func f(m map[string]int) (s int) {
	//sherlock:allow rangemap (sum is commutative)
	for _, v := range m {
		s += v
	}
	return
}
`,
	} {
		if code, out := vetSrc(t, src); code != 0 {
			t.Fatalf("allow directive ignored: code=%d out=%q\nsrc:\n%s", code, out, src)
		}
	}
	// The directive must name the right check to count.
	code, _ := vetSrc(t, `package pkg
func f(m map[string]int) (s int) {
	for _, v := range m { //sherlock:allow walltime
		s += v
	}
	return
}
`)
	if code != 1 {
		t.Fatalf("wrong-check directive suppressed the finding")
	}
}

func TestVetStaleAllow(t *testing.T) {
	// A directive that suppresses nothing is itself a finding, anchored at
	// the directive's line.
	code, out := vetSrc(t, `package pkg
func f(xs []int) (s int) {
	//sherlock:allow rangemap (left behind after a refactor)
	for _, v := range xs {
		s += v
	}
	return
}
`)
	if code != 1 || !strings.Contains(out, "staleallow") {
		t.Fatalf("stale directive not reported: code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "x.go:3:1: staleallow") {
		t.Fatalf("finding not anchored at the directive: %q", out)
	}
	if !strings.Contains(out, "//sherlock:allow rangemap suppresses no finding") {
		t.Fatalf("message does not name the stale check: %q", out)
	}
}

func TestVetStaleAllowPerCheck(t *testing.T) {
	// One directive naming two checks: the matched check is earned, the
	// unmatched one is stale — staleness is tracked per check name, not per
	// comment.
	code, out := vetSrc(t, `package pkg
func f(m map[string]int) (s int) {
	for _, v := range m { //sherlock:allow rangemap,walltime
		s += v
	}
	return
}
`)
	if code != 1 {
		t.Fatalf("code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "staleallow") || !strings.Contains(out, "walltime suppresses no finding") {
		t.Fatalf("unmatched check of a shared directive not reported: %q", out)
	}
	if strings.Contains(out, "rangemap suppresses no finding") {
		t.Fatalf("earned check flagged stale: %q", out)
	}
}

func TestVetAllowCommaInReason(t *testing.T) {
	// A comma in the commentary is not a check separator: the words after
	// it must neither count as a check nor be reported as stale.
	code, out := vetSrc(t, `package pkg
func f(m map[string]int) (s int) {
	//sherlock:allow rangemap (sum is commutative, order-insensitive)
	for _, v := range m {
		s += v
	}
	return
}
`)
	if code != 0 {
		t.Fatalf("comma in the reason broke the directive: code=%d out=%q", code, out)
	}
}

func TestVetStaleAllowCannotExcuseItself(t *testing.T) {
	code, out := vetSrc(t, `package pkg
//sherlock:allow staleallow
//sherlock:allow rangemap
func f() {}
`)
	if code != 1 || strings.Count(out, "staleallow:") != 2 {
		t.Fatalf("directives excused themselves: code=%d out=%q", code, out)
	}
}

func TestVetWallClock(t *testing.T) {
	code, out := vetSrc(t, `package pkg
import clock "time"
func f() int64 {
	t0 := clock.Now()
	return int64(clock.Since(t0))
}
`)
	if code != 1 || !strings.Contains(out, "walltime: time.Now") || !strings.Contains(out, "walltime: time.Since") {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestVetGlobalRand(t *testing.T) {
	code, out := vetSrc(t, `package pkg
import "math/rand"
func f() int {
	return rand.Intn(10)
}
func g(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
`)
	if code != 1 || !strings.Contains(out, "globalrand: rand.Intn") {
		t.Fatalf("code=%d out=%q", code, out)
	}
	// The seeded-constructor path must stay legal: exactly one finding.
	if strings.Count(out, "globalrand") != 1 {
		t.Fatalf("seeded constructors flagged too: %q", out)
	}
}

func TestVetSprintfKey(t *testing.T) {
	code, out := vetSrc(t, `package pkg
import "fmt"
func f(m map[string]int, a, b int) int {
	return m[fmt.Sprintf("%d,%d", a, b)]
}
`)
	if code != 1 || !strings.Contains(out, "sprintfkey") {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestVetShadowedPackageNameIsFine(t *testing.T) {
	// A local variable named like the package must not trigger the check.
	code, out := vetSrc(t, `package pkg
type clock struct{}
func (clock) Now() int { return 0 }
func f() int {
	var time clock
	return time.Now()
}
`)
	if code != 0 {
		t.Fatalf("code=%d out=%q", code, out)
	}
}

func TestVetParseFailure(t *testing.T) {
	code, _ := vetSrc(t, "package pkg\nfunc f( {\n")
	if code != 2 {
		t.Fatalf("code=%d, want 2", code)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-root", t.TempDir(), "nope"}, &out, &errb); code != 2 {
		t.Fatalf("missing dir: code=%d, want 2", code)
	}
}

// TestVetRepoIsClean is the invariant the CI step enforces: the
// deterministic core of this repository carries no unexplained map ranges,
// wall-clock reads, global randomness, or Sprintf-keyed maps.
func TestVetRepoIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-root", "../.."}, &out, &errb)
	if code != 0 {
		t.Fatalf("sherlock-vet over the repo: exit %d\n%s%s", code, out.String(), errb.String())
	}
}
