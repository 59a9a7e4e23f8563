package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the expdriver golden outputs")

// checkGolden runs expdriver with args and compares its output byte for byte
// with testdata/name; -update rewrites the file instead.
func checkGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
			i++
		}
		t.Errorf("expdriver %v differs from %s at line %d (rerun with -update only when the change is intended):\ngot:  %q\nwant: %q",
			args, path, i+1, line(gotLines, i), line(wantLines, i))
	}
}

// line returns lines[i], or a marker past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

// TestQuickFiguresGolden pins every figure at Quick scale: a refactor of the
// experiments or of the printing must leave the output byte-identical.
func TestQuickFiguresGolden(t *testing.T) {
	checkGolden(t, "all-quick.golden", "-fig", "all", "-quick")
}

// TestScorecardGolden pins the paper's claims at Quick scale, verdicts
// included: a claim that flips between PASS and FAIL shows up here as a
// diff, and its cause belongs in the change that regenerates the file.
func TestScorecardGolden(t *testing.T) {
	checkGolden(t, "scorecard-quick.golden", "-fig", "scorecard", "-quick")
}
