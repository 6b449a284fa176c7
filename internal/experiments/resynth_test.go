package experiments

import (
	"os"
	"testing"

	"sherlock/internal/device"
)

func TestResynthAblationShape(t *testing.T) {
	r := NewRunner(QuickSetup())
	rows, err := Resynth(r, device.STTMRAM, 128)
	if err != nil {
		t.Fatal(err)
	}
	workloads := ResynthWorkloads()
	variants := []ResynthVariant{ResynthOff, ResynthBalance, ResynthFull}
	if len(rows) != len(workloads)*len(variants) {
		t.Fatalf("got %d rows, want %d", len(rows), len(workloads)*len(variants))
	}
	i := 0
	for _, w := range workloads {
		var baseLatency float64
		for _, v := range variants {
			row := rows[i]
			i++
			if row.Workload != w || row.Variant != v {
				t.Fatalf("row %d is (%v, %v), want (%v, %v)", i-1, row.Workload, row.Variant, w, v)
			}
			if row.LatencyUS <= 0 || row.EnergyUJ <= 0 || row.Instructions <= 0 {
				t.Fatalf("row %d has non-positive cost: %+v", i-1, row)
			}
			switch v {
			case ResynthOff:
				baseLatency = row.LatencyUS
				if row.Speedup != 1 {
					t.Fatalf("baseline speedup = %v, want 1", row.Speedup)
				}
			default:
				// The optimizer keeps the baseline whenever no candidate
				// beats it, so resynthesis is never a slowdown.
				if row.LatencyUS > baseLatency {
					t.Fatalf("%v %v is slower than its baseline: %.3f > %.3f us",
						w, v, row.LatencyUS, baseLatency)
				}
				if row.Speedup < 1 {
					t.Fatalf("%v %v speedup %.3f < 1", w, v, row.Speedup)
				}
				if row.Proved+row.FuzzBackstops > row.Evaluations {
					t.Fatalf("%v %v: %d proved + %d backstopped exceed %d evaluations",
						w, v, row.Proved, row.FuzzBackstops, row.Evaluations)
				}
			}
		}
	}
	// The file holds `sherlock-exp -quick -exp resynth -resynth-size 128`
	// stdout, which ends the table with a blank line.
	want, err := os.ReadFile("testdata/resynth-quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := RenderResynth(rows) + "\n"; got != string(want) {
		t.Fatalf("quick resynthesis table differs from testdata/resynth-quick.txt; if the change is intentional, regenerate with `go run ./cmd/sherlock-exp -quick -exp resynth -resynth-size 128 > internal/experiments/testdata/resynth-quick.txt`\ngot:\n%swant:\n%s",
			got, want)
	}
}
