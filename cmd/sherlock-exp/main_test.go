package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestCampaignMatchesGolden regenerates the full-scale paper campaign
// (`sherlock-exp -exp all`) and byte-compares its stdout with the committed
// docs/campaign-full.txt, so any change that moves a Table 2, Fig. 2b,
// Fig. 6, Monte-Carlo or Fig. 7 number shows in the diff of that file.
// Regenerate it deliberately with
// `go run ./cmd/sherlock-exp > docs/campaign-full.txt`.
func TestCampaignMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../docs/campaign-full.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "all"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("campaign stdout differs from docs/campaign-full.txt (%d vs %d bytes); if the change is intentional, regenerate with `go run ./cmd/sherlock-exp > docs/campaign-full.txt`\n%s",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

// TestUsageErrors checks that a rejected command line is errUsage, an
// unknown experiment is an error rather than an empty run, and an
// experiment failure names the experiment.
func TestUsageErrors(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
		t.Fatalf("unknown flag: got %v, want errUsage", err)
	}
	if err := run([]string{"-exp", "fig9"}, io.Discard, io.Discard); err == nil || err.Error() != `unknown experiment "fig9"` {
		t.Fatalf("unknown experiment: got %v", err)
	}
	err := run([]string{"-exp", "fig7", "-fig7-sizes", "x"}, io.Discard, io.Discard)
	if err == nil || err.Error() != `fig7: bad size "x"` {
		t.Fatalf("bad size: got %v", err)
	}
}

// firstDiff renders the first line on which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return ""
}
