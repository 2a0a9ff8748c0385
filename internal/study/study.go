// Package study declares the committed studies — the FIG_*.csv files at
// the repo root — once each: name, file, pinned dataset, cell generator
// and columns. The CSV writer, the drift check and `epg study <name>`
// derive from that. A pinned file holds modeled numbers only, so a byte
// comparison with the regenerated study is a valid gate on any host: a
// difference means a commit moved what the study measures.
package study

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/harness"
)

// Column is one CSV column of a study whose cells are R.
type Column[R any] struct {
	Header string
	// Value reads the column from a cell: a string, an int or a float64.
	Value func(*R) any
	// Host marks a value of the machine running the study rather than of
	// the model (real worker count, wall clock). A pinned file holds 0
	// there, so hosts with different CPU counts write the same bytes.
	Host bool
}

// Study is one declared study.
type Study struct {
	Name    string // `epg study <Name>`
	File    string // the committed artifact, relative to the repo root
	Dataset string // the dataset File is pinned to
	Header  string // line 1 of File
	// Run writes the study as CSV. With dataset empty it runs on the
	// pinned one with the Host columns zeroed — the bytes of File; any
	// other dataset (the full-scale figure) keeps them live.
	Run func(w io.Writer, dataset string) error
}

// All lists the declared studies.
var All = []*Study{Sched, Serving, Stream, Paper}

// declare derives a Study from its columns and its cell generator, which
// returns the cells on el (the dataset generated from seed) in row order.
func declare[R any](name, file, pin string, seed uint64, cols []Column[R],
	cells func(el *graph.EdgeList, dataset string) ([]R, error)) *Study {
	return &Study{Name: name, File: file, Dataset: pin, Header: header(cols),
		Run: func(w io.Writer, dataset string) error {
			pinned := dataset == ""
			if pinned {
				dataset = pin
			}
			el, err := harness.ResolveDataset(dataset, harness.DatasetOptions{Seed: seed})
			if err != nil {
				return err
			}
			rows, err := cells(el, dataset)
			if err != nil {
				return fmt.Errorf("study %s on %s: %w", name, dataset, err)
			}
			return WriteCSV(w, cols, rows, pinned)
		}}
}

func header[R any](cols []Column[R]) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Header
	}
	return strings.Join(names, ",")
}

// WriteCSV writes the header line and one line per row; pinned zeroes
// the Host columns. It is the one place a study value becomes text: a
// float64 at the shortest precision that round-trips it exactly,
// readable and still bit-faithful under a byte comparison.
func WriteCSV[R any](w io.Writer, cols []Column[R], rows []R, pinned bool) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(header(cols) + "\n")
	for r := range rows {
		for i, c := range cols {
			if i > 0 {
				bw.WriteByte(',')
			}
			v := c.Value(&rows[r])
			if pinned && c.Host {
				v = 0
			}
			switch v := v.(type) {
			case string:
				if strings.ContainsAny(v, ",\"\n") {
					panic(fmt.Sprintf("study: column %s holds %q, which would split its line", c.Header, v))
				}
				bw.WriteString(v)
			case int:
				bw.WriteString(strconv.Itoa(v))
			case float64:
				bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			default:
				panic(fmt.Sprintf("study: column %s holds a %T", c.Header, v))
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Check regenerates the pinned study and compares it with the committed
// bytes of File. The error shows the first five lines that differ.
func (s *Study) Check(committed []byte) error {
	var regenerated bytes.Buffer
	if err := s.Run(&regenerated, ""); err != nil {
		return err
	}
	if bytes.Equal(regenerated.Bytes(), committed) {
		return nil
	}
	got := strings.Split(strings.TrimRight(regenerated.String(), "\n"), "\n")
	want := strings.Split(strings.TrimRight(string(committed), "\n"), "\n")
	var lines strings.Builder
	for i, shown := 0, 0; i < len(got) && i < len(want) && shown < 5; i++ {
		if got[i] != want[i] {
			fmt.Fprintf(&lines, "\nline %d:\n  committed:   %s\n  regenerated: %s", i+1, want[i], got[i])
			shown++
		}
	}
	return fmt.Errorf("%s drifted from the regenerated %s study (%d lines committed, %d regenerated)%s\n"+
		"if the change is meant, run `epg study %s -write` and commit the file",
		s.File, s.Name, len(want), len(got), &lines, s.Name)
}
