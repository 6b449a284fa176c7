package coopt

import (
	"fmt"
	"math/rand"
	"sort"

	"sherlock/internal/dfg"
	"sherlock/internal/mapping"
	"sherlock/internal/verify"
)

// VerifyMapped is the acceptance gate every candidate mapping must clear:
// the emitted program passes the static verifier at zero findings — not
// merely zero errors — against the layout it was scheduled for.
func VerifyMapped(res *mapping.Result, maxRows int) error {
	rep := verify.ProgramOpts(res.Program, res.Layout.Target(), verify.Options{MaxRows: maxRows})
	if rep.Clean() {
		return nil
	}
	return fmt.Errorf("coopt: candidate program has %d verifier finding(s), first: %s",
		len(rep.Findings), rep.Findings[0])
}

// ProveMapped is the static equivalence gate: the candidate's emitted
// program is symbolically executed into an AIG (internal/verify) and every
// readout is discharged against the reference kernel. A fully proven
// report subsumes the dynamic fuzz; a refuted report carries a concrete
// counterexample; outputs that the rebuild leaves distinct over a joint
// support wider than the table's 16 inputs come back unproven, and the
// caller falls back to FuzzEquivalence.
func ProveMapped(res *mapping.Result, kernel *dfg.Graph) (*verify.EquivReport, error) {
	outs, names := res.Graph.Outputs(), res.Graph.OutputNames()
	specs := make([]verify.OutputAt, len(outs))
	for i, o := range outs {
		p, err := res.OutputPlace(o)
		if err != nil {
			return nil, err
		}
		specs[i] = verify.OutputAt{Name: names[i], Place: p}
	}
	return verify.EquivalentOpts(res.Program, res.Layout.Target(), kernel, specs, verify.EquivOptions{})
}

// FuzzEquivalence checks that cand computes the same function as ref by
// packed random simulation: the interfaces must agree exactly (same input
// and output name sets) and every output must match on `rounds` random
// 64-lane word vectors. Deterministic for a given seed.
func FuzzEquivalence(ref, cand *dfg.Graph, rounds int, seed int64) error {
	refIn, candIn := ref.InputNames(), cand.InputNames()
	if err := sameNameSet("input", refIn, candIn); err != nil {
		return err
	}
	if err := sameNameSet("output", ref.OutputNames(), cand.OutputNames()); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	outNames := ref.OutputNames()
	for round := 0; round < rounds; round++ {
		in := make(map[string]uint64, len(refIn))
		for _, name := range refIn {
			in[name] = rng.Uint64()
		}
		want, err := dfg.EvaluateWords(ref, in)
		if err != nil {
			return fmt.Errorf("coopt: fuzz reference eval: %w", err)
		}
		got, err := dfg.EvaluateWords(cand, in)
		if err != nil {
			return fmt.Errorf("coopt: fuzz candidate eval: %w", err)
		}
		for _, name := range outNames {
			if got[name] != want[name] {
				return fmt.Errorf("coopt: candidate diverges on output %q (round %d): got %016x want %016x",
					name, round, got[name], want[name])
			}
		}
	}
	return nil
}

func sameNameSet(kind string, a, b []string) error {
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	if len(as) != len(bs) {
		return fmt.Errorf("coopt: candidate has %d %ss, reference %d", len(bs), kind, len(as))
	}
	for i := range as {
		if as[i] != bs[i] {
			return fmt.Errorf("coopt: %s set mismatch: %q vs %q", kind, bs[i], as[i])
		}
	}
	return nil
}
