package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sherlock/internal/cparser"
	"sherlock/internal/dfg"
	"sherlock/internal/layout"
	"sherlock/internal/mapping"
)

// writeProg stores program text in a temporary file and returns its path.
func writeProg(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.cim")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runSim runs the command and returns its stdout.
func runSim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// TestDumpMatchesEvaluate compiles a small C kernel, runs its program
// through the command on every input assignment, and checks the cell dump
// at each output cell against the DFG's own evaluation — both the full
// dump and the -dump readback.
func TestDumpMatchesEvaluate(t *testing.T) {
	parsed, err := cparser.Compile(`
void demo(word a, word b, word c, word *lo, word *hi) {
	word t = (a & b) ^ c;
	*lo = t | ~a;
	*hi = t & b;
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := parsed.Graph
	target := layout.Target{Arrays: 1, Rows: 32, Cols: 32}
	res, err := mapping.Optimized(g, mapping.Options{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	path := writeProg(t, res.Program.String())
	var places []string
	for _, out := range g.Outputs() {
		p, err := res.OutputPlace(out)
		if err != nil {
			t.Fatal(err)
		}
		places = append(places, fmt.Sprintf("%d:%d:%d", p.Array, p.Col, p.Row))
	}
	names := g.OutputNames()
	for v := 0; v < 8; v++ {
		in := map[string]bool{"a": v&1 == 1, "b": v&2 == 2, "c": v&4 == 4}
		want, err := dfg.EvaluateByName(g, in)
		if err != nil {
			t.Fatal(err)
		}
		binds := fmt.Sprintf("a=%d,b=%d,c=%d", v&1, v>>1&1, v>>2&1)
		full, err := runSim(t, "-prog", path, "-target", "1x32x32", "-inputs", binds)
		if err != nil {
			t.Fatal(err)
		}
		picked, err := runSim(t, "-prog", path, "-target", "1x32x32", "-inputs", binds,
			"-dump", strings.Join(places, ","))
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range g.Outputs() {
			p, _ := res.OutputPlace(out)
			bit := 0
			if want[names[i]] {
				bit = 1
			}
			line := fmt.Sprintf("%s = %d\n", p, bit)
			if !strings.Contains(full, line) {
				t.Errorf("inputs %s: full dump lacks %q\n%s", binds, line, full)
			}
			if !strings.Contains(picked, line) {
				t.Errorf("inputs %s: -dump lacks %q\n%s", binds, line, picked)
			}
		}
	}
}

// noisyProg is 100 two-row XOR reads over 64 columns: 6,400 sense
// decisions, about 13 expected STT-MRAM faults per run.
func noisyProg() (text, binds string) {
	var cols, ops, row0, row1, in []string
	for c := 0; c < 64; c++ {
		cols = append(cols, fmt.Sprint(c))
		ops = append(ops, "XOR")
		row0 = append(row0, fmt.Sprintf("x%d", c))
		row1 = append(row1, fmt.Sprintf("y%d", c))
		in = append(in, fmt.Sprintf("x%d=%d,y%d=%d", c, c%2, c, c%3%2))
	}
	cs := strings.Join(cols, ",")
	var b strings.Builder
	fmt.Fprintf(&b, "Write [0][%s][0] <%s>\n", cs, strings.Join(row0, ","))
	fmt.Fprintf(&b, "Write [0][%s][1] <%s>\n", cs, strings.Join(row1, ","))
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "Read [0][%s][0,1] [%s]\n", cs, strings.Join(ops, ","))
	}
	fmt.Fprintf(&b, "Write [0][%s][2]\n", cs)
	return b.String(), strings.Join(in, ",")
}

// TestFaultsDeterministic pins -faults to its seed: the same seed prints
// the same report, including the injected-fault count line.
func TestFaultsDeterministic(t *testing.T) {
	text, binds := noisyProg()
	path := writeProg(t, text)
	args := []string{"-prog", path, "-target", "1x4x64", "-inputs", binds, "-faults", "-seed", "7"}
	first, err := runSim(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runSim(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("the same seed gave two different reports")
	}
	var n int
	lines := strings.Split(first, "\n")
	if len(lines) < 2 {
		t.Fatalf("short report:\n%s", first)
	}
	if _, err := fmt.Sscanf(lines[1], "# %d sense faults injected", &n); err != nil || n == 0 {
		t.Fatalf("second line %q: want a nonzero injected-fault count (%v)", lines[1], err)
	}
	clean, err := runSim(t, "-prog", path, "-target", "1x4x64", "-inputs", binds)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean, "sense faults injected") {
		t.Fatalf("fault count printed without -faults:\n%s", clean)
	}
}

// TestStrictErrorsIgnoreFaults checks that a strict-broken program fails
// with the same first error whether or not fault injection is on.
func TestStrictErrorsIgnoreFaults(t *testing.T) {
	for _, tc := range []struct{ name, prog, inputs string }{
		{"shift drops bit", "Write [0][3][0] <x>\nRead [0][3][0]\nShift [0] R[2]\nWrite [0][3][1]\n", "x=1"},
		{"undefined read", "Read [0][0][0]\n", ""},
		{"unbound input", "Write [0][0][0] <x>\nWrite [0][1][0] <y>\n", "x=1"},
	} {
		path := writeProg(t, tc.prog)
		args := []string{"-prog", path, "-target", "2x8x4", "-inputs", tc.inputs}
		_, plain := runSim(t, args...)
		_, faulted := runSim(t, append(args, "-faults", "-seed", "3")...)
		if plain == nil || faulted == nil {
			t.Fatalf("%s: errors %v and %v, want both to fail", tc.name, plain, faulted)
		}
		if plain.Error() != faulted.Error() {
			t.Errorf("%s: errors differ\nplain:   %v\nfaulted: %v", tc.name, plain, faulted)
		}
	}
}
