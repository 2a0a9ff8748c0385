package study

import (
	"bytes"
	"os"
	"path/filepath"
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
