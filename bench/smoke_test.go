package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end at tiny size, untraced and
// traced, so the benchmark cannot rot: each must exit 0 with a result line
// holding exactly the spec's metrics for its mode.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	const specPath = "../BENCHMARK.json"
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-spec", specPath, "-smoke", "-workload", w.name, "-seed", "3", "-trace", trace,
				"-trace-out", filepath.Join(dir, w.name+".trace.json"), "-json", filepath.Join(dir, w.name+".json")}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Errorf("%s trace=%s: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Errorf("%s trace=%s: last line is not the result line: %v", w.name, trace, err)
				continue
			}
			list := s.EndToEnd
			if trace == "1" {
				list = s.PerLayer
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 || len(line.Metrics) != len(list) {
				t.Errorf("%s trace=%s: result line %+v", w.name, trace, line)
			}
			for _, m := range list {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
