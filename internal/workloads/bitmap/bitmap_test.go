package bitmap

import (
	"math/rand"
	"testing"

	"sherlock/internal/dfg"
	"sherlock/internal/layout"
	"sherlock/internal/mapping"
	"sherlock/internal/sim/simref"
)

func randomRows(rng *rand.Rand, cfg Config, density float64) [][]bool {
	rows := make([][]bool, cfg.Terms)
	for t := range rows {
		rows[t] = make([]bool, cfg.RowsPerTerm)
		for r := range rows[t] {
			rows[t][r] = rng.Float64() < density
		}
	}
	return rows
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Terms: 0, RowsPerTerm: 1, Queries: 1, TermsPerQuery: 1},
		{Terms: 4, RowsPerTerm: 1, Queries: 1, TermsPerQuery: 3, ExcludedPerQuery: 2},
		{Terms: 4, RowsPerTerm: 0, Queries: 1, TermsPerQuery: 1},
	}
	for _, c := range bad {
		if _, err := Build(c); err == nil {
			t.Errorf("accepted %+v", c)
		}
	}
}

func TestQueryPlanDeterministicAndValid(t *testing.T) {
	cfg := DefaultConfig()
	p1, p2 := cfg.QueryPlan(), cfg.QueryPlan()
	for q := range p1 {
		if len(p1[q].Required) != cfg.TermsPerQuery || len(p1[q].Excluded) != cfg.ExcludedPerQuery {
			t.Fatalf("query %d shape wrong", q)
		}
		for i := range p1[q].Required {
			if p1[q].Required[i] != p2[q].Required[i] {
				t.Fatal("plan not deterministic")
			}
		}
		seen := map[int]bool{}
		for _, tm := range append(append([]int{}, p1[q].Required...), p1[q].Excluded...) {
			if seen[tm] {
				t.Fatalf("query %d repeats term %d", q, tm)
			}
			seen[tm] = true
		}
	}
}

func TestKernelMatchesReference(t *testing.T) {
	cfg := Config{Terms: 10, RowsPerTerm: 2, Queries: 6, TermsPerQuery: 3, ExcludedPerQuery: 1, Seed: 3}
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	plan := cfg.QueryPlan()
	rng := rand.New(rand.NewSource(9))
	for _, density := range []float64{0.1, 0.5, 0.9} {
		for trial := 0; trial < 20; trial++ {
			rows := randomRows(rng, cfg, density)
			in, err := Assignments(cfg, rows)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dfg.EvaluateByName(g, in)
			if err != nil {
				t.Fatal(err)
			}
			for q := range plan {
				if res[MatchName(q)] != Reference(cfg, plan[q], rows) {
					t.Fatalf("density %.1f trial %d query %d mismatch", density, trial, q)
				}
			}
		}
	}
}

func TestSharedTermsAreCSEd(t *testing.T) {
	// The per-term OR must exist once, not once per query: the op count
	// stays far below Queries * (RowsPerTerm-1 + TermsPerQuery).
	cfg := Config{Terms: 6, RowsPerTerm: 4, Queries: 20, TermsPerQuery: 3, ExcludedPerQuery: 0, Seed: 1}
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeStats()
	worstCase := cfg.Queries * (cfg.RowsPerTerm - 1 + cfg.TermsPerQuery)
	if st.Ops >= worstCase {
		t.Errorf("no sharing: %d ops (worst case %d)", st.Ops, worstCase)
	}
}

func TestEndToEndOnCIM(t *testing.T) {
	cfg := Config{Terms: 8, RowsPerTerm: 2, Queries: 5, TermsPerQuery: 3, ExcludedPerQuery: 1, Seed: 5}
	g, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := layout.Target{Arrays: 1, Rows: 12, Cols: 32}
	plan := cfg.QueryPlan()
	rng := rand.New(rand.NewSource(21))
	for _, naive := range []bool{true, false} {
		var res *mapping.Result
		if naive {
			res, err = mapping.Naive(g, mapping.Options{Target: target})
		} else {
			res, err = mapping.Optimized(g, mapping.Options{Target: target})
		}
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			rows := randomRows(rng, cfg, 0.4)
			in, _ := Assignments(cfg, rows)
			m := simref.NewMachine(target)
			if err := m.Run(res.Program, in); err != nil {
				t.Fatal(err)
			}
			for q := range plan {
				id, ok := g.OperandByName(MatchName(q))
				if !ok {
					t.Fatal("output missing")
				}
				p, err := res.OutputPlace(id)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.ReadOut(p)
				if err != nil {
					t.Fatal(err)
				}
				if got != Reference(cfg, plan[q], rows) {
					t.Fatalf("naive=%v trial %d query %d wrong on CIM", naive, trial, q)
				}
			}
		}
	}
}

func TestAssignmentsReject(t *testing.T) {
	cfg := Config{Terms: 3, RowsPerTerm: 2, Queries: 1, TermsPerQuery: 1, Seed: 1}
	if _, err := Assignments(cfg, [][]bool{{true}}); err == nil {
		t.Error("short matrix accepted")
	}
	if _, err := Assignments(cfg, [][]bool{{true}, {true}, {true}}); err == nil {
		t.Error("narrow rows accepted")
	}
}
