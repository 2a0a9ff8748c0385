package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickstartExampleRuns builds the one example the tree ships and
// runs it end to end, so it cannot rot behind the façade it shows off:
// a failed dataset load or run is a log.Fatal, which fails the test
// binary; a run that stops printing the panels fails here.
func TestQuickstartExampleRuns(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	main()
	os.Stdout = stdout
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dataset: 16384 vertices", "BFS Time", "BFS Data Structure Construction", "Per-engine TEPS", "GAP"} {
		if !strings.Contains(string(got), want) {
			t.Errorf("quickstart output lacks %q:\n%s", want, got)
		}
	}
}
