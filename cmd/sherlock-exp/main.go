// Command sherlock-exp regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	sherlock-exp -exp table2|fig2b|fig6|fig7|mc|resynth|analytics|all
//	             [-quick] [-parallel N] [-fig6-size 256]
//	             [-fig7-sizes 128,256,512,1024] [-resynth-size 512] [-rows N]
//
// -exp resynth runs the synthesis↔scheduling co-optimization ablation
// (Algorithm 2 alone vs balance-only vs the full pass portfolio); it is
// opt-in and not part of -exp all because the search compiles each
// workload many times.
//
// -exp analytics runs the streamed data-analytics campaign (bitmap-index
// COUNT and bit-serial filter+SUM over -rows rows, default one million)
// and prints the host-checked tallies to stdout. Also opt-in: the
// million-row scans are a streaming-pipeline check, not a paper artifact.
//
// -quick shrinks the kernels (2-round AES, small tiles) for fast runs;
// the default regenerates the full-scale campaign (complete AES-128),
// whose stdout is committed as docs/campaign-full.txt. -parallel bounds
// the campaign worker pool (default 0 = all cores); results are identical
// for every setting — grid cells are reassembled in paper order and
// Monte-Carlo streams are sharded by seed, not by worker.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sherlock/internal/device"
	"sherlock/internal/experiments"
	"sherlock/internal/profiling"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag set has already printed the problem and usage
	default:
		fmt.Fprintln(os.Stderr, "sherlock-exp:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set rejected.
var errUsage = errors.New("usage")

// run is the whole command: it parses args and writes the selected
// experiments' tables to stdout. Wall-clock timings go to stderr, so stdout
// is byte-identical across runs and -parallel settings.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("sherlock-exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment: table2, fig2b, fig6, fig7, mc, resynth, analytics or all")
		quick      = fs.Bool("quick", false, "shrunken kernels for fast iteration")
		fig6Size   = fs.Int("fig6-size", 256, "array dimension for the Fig. 6 sweep")
		mcRuns     = fs.Int("mc-runs", 400, "fault-injected runs per Monte-Carlo validation row")
		fig7Sizes  = fs.String("fig7-sizes", "128,256,512,1024", "array dimensions for Fig. 7")
		resynSize  = fs.Int("resynth-size", 512, "array dimension for the resynthesis ablation")
		rows       = fs.Int("rows", 1_000_000, "table size for the analytics campaign")
		parallel   = fs.Int("parallel", 0, "campaign worker pool size (0 = all cores); results are identical for every setting")
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

	setup := experiments.DefaultSetup()
	if *quick {
		setup = experiments.QuickSetup()
	}
	setup.Parallelism = *parallel
	r := experiments.NewRunner(setup)

	// Experiments run in campaign order. The opt-in ones are skipped by
	// "all": the resynthesis ablation compiles each workload many times and
	// is not part of the paper's standard campaign, and the analytics
	// campaign streams millions of rows to check the streaming pipeline,
	// which is not one of the paper's artifacts.
	steps := []struct {
		name  string
		optIn bool
		run   func() error
	}{
		{"fig2b", false, func() error {
			fmt.Fprint(stdout, experiments.RenderFig2b(experiments.Fig2b(device.Technologies())))
			return nil
		}},
		{"table2", false, func() error {
			rows, err := experiments.Table2(r)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderTable2(rows))
			s := experiments.Summarize(rows)
			fmt.Fprintf(stdout, "headline ratios: opt/naive latency %.2fx, energy %.2fx; naive MRA>=2 latency %.2fx\n",
				s.GeomeanLatencyGain, s.GeomeanEnergyGain, s.NaiveMRALatencyGain)
			return nil
		}},
		{"fig6", false, func() error {
			series, err := experiments.Fig6(r, *fig6Size)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderFig6(series))
			gains := experiments.Fig6Summary(series)
			// Print in setup order: map iteration order would make otherwise
			// identical campaign outputs differ between runs.
			for _, tech := range setup.Techs {
				if gain, ok := gains[tech]; ok {
					fmt.Fprintf(stdout, "opt P_app improvement on %v: %.2fx (geomean over the sweep)\n", tech, gain)
				}
			}
			return nil
		}},
		{"mc", false, func() error {
			var rows []experiments.MCResult
			start := time.Now()
			for _, tech := range []device.Technology{device.ReRAM, device.STTMRAM} {
				mc, err := experiments.MonteCarlo(r, experiments.Bitweaving, tech, *fig6Size, *mcRuns, 7)
				if err != nil {
					return err
				}
				rows = append(rows, mc)
			}
			elapsed := time.Since(start)
			fmt.Fprint(stdout, experiments.RenderMC(rows))
			total := len(rows) * *mcRuns
			fmt.Fprintf(stderr, "%d fault-injected runs in %v (%.0f runs/sec, pre-decoded executor)\n",
				total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
			return nil
		}},
		{"fig7", false, func() error {
			sizes, err := parseSizes(*fig7Sizes)
			if err != nil {
				return err
			}
			rows, err := experiments.Fig7(r, sizes)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderFig7(rows))
			return nil
		}},
		{"resynth", true, func() error {
			start := time.Now()
			rows, err := experiments.Resynth(r, device.STTMRAM, *resynSize)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			fmt.Fprint(stdout, experiments.RenderResynth(rows))
			fmt.Fprintf(stderr, "resynthesis search completed in %v\n", elapsed.Round(time.Millisecond))
			return nil
		}},
		{"analytics", true, func() error {
			cfg := experiments.DefaultAnalyticsConfig()
			cfg.Rows = *rows
			if *quick {
				cfg.Rows = min(cfg.Rows, 100_000)
			}
			cfg.Parallelism = *parallel
			res, err := experiments.Analytics(cfg)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderAnalytics(res))
			return nil
		}},
	}
	ran := false
	for _, st := range steps {
		if *exp != st.name && (*exp != "all" || st.optIn) {
			continue
		}
		if err := st.run(); err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		fmt.Fprintln(stdout)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad size %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
