package epg_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIPatternsNameTests holds every -run and -fuzz pattern of the CI
// workflow and the Makefile to a test that exists: each branch of a
// pattern (split on |, anchors stripped) must be part of the name of a
// Test, Fuzz or Benchmark function in the module or in bench/. `go test
// -run` with a pattern that matches nothing prints "no tests to run"
// and passes, so a step naming a deleted test would check nothing.
func TestCIPatternsNameTests(t *testing.T) {
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	flagRE := regexp.MustCompile(`(?:^|\s)-(?:run|fuzz)[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			for _, m := range flagRE.FindAllStringSubmatch(line, -1) {
				pattern := strings.ReplaceAll(m[1]+m[2]+m[3], "$$", "$")
				for _, branch := range strings.Split(pattern, "|") {
					branch = strings.TrimSuffix(strings.TrimPrefix(branch, "^"), "$")
					if branch != "" && !slices.ContainsFunc(names, func(n string) bool { return strings.Contains(n, branch) }) {
						t.Errorf("%s:%d: %q names no test function", file, i+1, branch)
					}
				}
			}
		}
	}
}
