// Command sherlock-sim executes a CIM instruction program (as emitted by
// the sherlock compiler, Fig. 4 format) bit-exactly on one lane of the
// pre-decoded executor (internal/sim).
//
// Usage:
//
//	sherlock-sim -prog program.cim -target 4x512x512 \
//	    -inputs "a=1,b=0,c=1" [-verify] [-dump "0:3:10,0:3:11"] \
//	    [-faults -tech STT-MRAM -seed 7]
//
// Host-write instructions bind their named inputs from -inputs. -dump
// reads back cells given as array:col:row triples; without -dump every
// written cell is printed. -verify statically checks the program first and
// exits with the full diagnostic list instead of failing mid-execution.
// -faults flips sense decisions with their -tech decision-failure
// probability, seeded by -seed, and reports how many it flipped.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sherlock/internal/device"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/profiling"
	"sherlock/internal/sim"
	"sherlock/internal/verify"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag set has already printed the problem and usage
	default:
		fmt.Fprintln(os.Stderr, "sherlock-sim:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set rejected.
var errUsage = errors.New("usage")

// run is the whole command: it parses args, executes the program and
// writes the report to stdout. Static diagnostics go to stderr.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("sherlock-sim", flag.ContinueOnError)
	var (
		progPath = fs.String("prog", "", "program file (required)")
		target   = fs.String("target", "4x512x512", "fabric as ARRAYSxROWSxCOLS")
		inputs   = fs.String("inputs", "", "comma-separated name=0|1 bindings")
		dump     = fs.String("dump", "", "comma-separated array:col:row cells to read back")
		doVerify = fs.Bool("verify", false, "statically verify the program before executing; exit with all diagnostics on failure")
		faults   = fs.Bool("faults", false, "enable decision-failure fault injection")
		tech     = fs.String("tech", "STT-MRAM", "technology for fault injection")
		seed     = fs.Int64("seed", 1, "fault-injection seed")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()
	if *progPath == "" {
		return fmt.Errorf("-prog is required")
	}
	text, err := os.ReadFile(*progPath)
	if err != nil {
		return err
	}
	prog, err := isa.ParseProgram(string(text))
	if err != nil {
		return err
	}
	t, err := parseTarget(*target)
	if err != nil {
		return err
	}
	binds, err := parseInputs(*inputs)
	if err != nil {
		return err
	}

	// With -verify, surface every static diagnostic up front and refuse to
	// run a broken program: a clean exit code plus the full finding list
	// beats the first dynamic error (or a mid-run panic) it would hit.
	if *doVerify {
		rep := verify.Program(prog, t)
		for _, f := range rep.Findings {
			fmt.Fprintf(os.Stderr, "sherlock-sim: %v\n", f)
		}
		if !rep.OK() {
			return fmt.Errorf("program failed static verification; not executing")
		}
	}

	// One lane of the pre-decoded executor, the engine every other path
	// runs on; -faults arms its geometric-skip sampler for the pass.
	ex, err := sim.Predecode(prog, t)
	if err != nil {
		return err
	}
	m := ex.NewMachine(1)
	m.Reset(1)
	if *faults {
		tv, err := device.ParseTechnology(*tech)
		if err != nil {
			return err
		}
		m.EnableFaultInjection(device.ParamsFor(tv), *seed)
	}
	if err := m.RunMap(binds); err != nil {
		return err
	}
	st := prog.ComputeStats()
	fmt.Fprintf(stdout, "# executed %d instructions (%d CIM reads, %d writes, %d host writes, %d shifts, %d nots)\n",
		st.Total, st.CIMReads, st.Writes, st.HostWrites, st.Shifts, st.Nots)
	if n := m.FaultCount(0); n > 0 {
		fmt.Fprintf(stdout, "# %d sense faults injected\n", n)
	}

	if *dump != "" {
		for _, spec := range strings.Split(*dump, ",") {
			p, err := parsePlace(spec)
			if err != nil {
				return err
			}
			w, err := m.ReadOutWord(p, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s = %d\n", p, w&1)
		}
		return nil
	}
	// Dump every defined cell, in address order.
	for a := 0; a < t.Arrays; a++ {
		for c := 0; c < t.Cols; c++ {
			for r := 0; r < t.Rows; r++ {
				p := layout.Place{Array: a, Col: c, Row: r}
				if ex.Defined(p) {
					w, _ := m.ReadOutWord(p, 0) // defined cells always read out
					fmt.Fprintf(stdout, "%s = %d\n", p, w&1)
				}
			}
		}
	}
	return nil
}

func parseTarget(s string) (layout.Target, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return layout.Target{}, fmt.Errorf("target %q not of form AxRxC", s)
	}
	var nums [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return layout.Target{}, fmt.Errorf("target %q: %v", s, err)
		}
		nums[i] = v
	}
	t := layout.Target{Arrays: nums[0], Rows: nums[1], Cols: nums[2]}
	return t, t.Validate()
}

// parseInputs reads name=0|1 bindings as one-lane input words.
func parseInputs(s string) (map[string]uint64, error) {
	out := make(map[string]uint64)
	if s == "" {
		return out, nil
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		eq := strings.IndexByte(kv, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("bad input binding %q", kv)
		}
		switch kv[eq+1:] {
		case "0":
			out[kv[:eq]] = 0
		case "1":
			out[kv[:eq]] = 1
		default:
			return nil, fmt.Errorf("input %q must be 0 or 1", kv)
		}
	}
	return out, nil
}

func parsePlace(s string) (layout.Place, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	if len(parts) != 3 {
		return layout.Place{}, fmt.Errorf("cell %q not of form array:col:row", s)
	}
	var nums [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return layout.Place{}, err
		}
		nums[i] = v
	}
	return layout.Place{Array: nums[0], Col: nums[1], Row: nums[2]}, nil
}
