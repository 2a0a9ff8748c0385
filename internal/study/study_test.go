package study

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func committed(t *testing.T, s *Study) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", s.File))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A column added, dropped, renamed or reordered without regenerating the
// file shows here, without running a study.
func TestHeadersMatchCommittedFiles(t *testing.T) {
	for _, s := range All {
		if line1, _, _ := strings.Cut(string(committed(t, s)), "\n"); line1 != s.Header {
			t.Errorf("%s line 1\n got %s\nwant %s", s.File, line1, s.Header)
		}
	}
}

// The serving study is the one cheap and single-threaded enough for
// every test run; sched and stream are `epg study <name> -check` in CI.
func TestCheckPassesOnCommittedBytesAndNamesADriftedLine(t *testing.T) {
	want := committed(t, Serving)
	if err := Serving.Check(want); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(want), "\n")
	lines[3] = strings.Replace(lines[3], "400", "401", 1) // the queries column of line 4
	err := Serving.Check([]byte(strings.Join(lines, "\n")))
	if err == nil {
		t.Fatal("Check passed a file with one digit flipped")
	}
	if !strings.Contains(err.Error(), "line 4:") || strings.Contains(err.Error(), "line 3:") ||
		!strings.Contains(err.Error(), lines[3]) || !strings.Contains(err.Error(), "epg study serving -write") {
		t.Errorf("drift report does not name line 4 alone:\n%v", err)
	}
}

func TestWriteCSVZeroesHostColumnsOnlyWhenPinned(t *testing.T) {
	type cell struct {
		name    string
		workers int
		sec     float64
	}
	cols := []Column[cell]{
		{"name", func(c *cell) any { return c.name }, false},
		{"workers", func(c *cell) any { return c.workers }, true},
		{"modeled_s", func(c *cell) any { return c.sec }, false},
		{"wall_s", func(c *cell) any { return c.sec * 2 }, true},
	}
	rows := []cell{{"a", 4, 0.25}, {"b", 2, 1234567890123}}
	for pinned, want := range map[bool]string{
		false: "name,workers,modeled_s,wall_s\na,4,0.25,0.5\nb,2,1.234567890123e+12,2.469135780246e+12\n",
		true:  "name,workers,modeled_s,wall_s\na,0,0.25,0\nb,0,1.234567890123e+12,0\n",
	} {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, cols, rows, pinned); err != nil || buf.String() != want {
			t.Errorf("pinned=%v: %v\n got %q\nwant %q", pinned, err, buf.String(), want)
		}
	}
}

// A comma, a double quote or a newline in a text value would shift every
// later column of its line, so WriteCSV refuses one as it refuses a value
// of the wrong type.
func TestWriteCSVRejectsValuesThatSplitALine(t *testing.T) {
	cols := []Column[string]{{"text", func(s *string) any { return *s }, false}}
	for _, v := range []string{"a,b", `say "x"`, "two\nlines"} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "column text") {
					t.Errorf("WriteCSV wrote %q: recovered %v", v, r)
				}
			}()
			WriteCSV(io.Discard, cols, []string{v}, true)
		}()
	}
}

// The ledger is checked on every test run, like the serving study: a
// drifted model value or verdict fails here.
func TestPaperLedgerMatchesCommittedFile(t *testing.T) {
	if err := Paper.Check(committed(t, Paper)); err != nil {
		t.Fatal(err)
	}
}

// A claim that holds with a reason declared (a stale gap) and one that
// does not hold without one (a silent gap) each fail the pinned Run by
// name.
func TestPaperRunNamesAFlippedClaim(t *testing.T) {
	stale := slices.IndexFunc(claims, func(c claim) bool { return c.reason == "" })
	silent := slices.IndexFunc(claims, func(c claim) bool { return c.reason != "" })
	defer func(a, b string) { claims[stale].reason, claims[silent].reason = a, b }(claims[stale].reason, claims[silent].reason)
	claims[stale].reason, claims[silent].reason = "declared for the test", ""
	err := Paper.Run(io.Discard, "")
	if err == nil {
		t.Fatal("the pinned ledger ran with a stale and a silent gap")
	}
	for want, c := range map[string]claim{"stale gap": claims[stale], "silent gap": claims[silent]} {
		if !strings.Contains(err.Error(), fmt.Sprintf("%q is a %s", c.name, want)) {
			t.Errorf("the error does not name the %s %q:\n%v", want, c.name, err)
		}
	}
	if n := strings.Count(err.Error(), " gap: "); n != 2 {
		t.Errorf("the error names %d claims, want 2:\n%v", n, err)
	}
}

// Every row's paper value is quoted verbatim from the line its source
// names, so a citation that drifts from its text fails here.
func TestPaperSourcesQuoteTheRepo(t *testing.T) {
	for _, c := range claims {
		path, line, _ := strings.Cut(c.source, ":")
		n, err := strconv.Atoi(line)
		b, rerr := os.ReadFile(filepath.Join("..", "..", path))
		if err != nil || rerr != nil {
			t.Fatalf("%s: %v %v", c.source, err, rerr)
		}
		if lines := strings.Split(string(b), "\n"); n < 1 || n > len(lines) || !strings.Contains(lines[n-1], c.paper) {
			t.Errorf("%s does not quote %q", c.source, c.paper)
		}
	}
}
