package epg_test

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg"
)

// TestREADMEKnobTable holds README's "Execution knobs" table equal to
// epg.Knobs: one row per knob, in table order, whose first four cells
// are the Spec field, the CLI flag, the legal values and the help line
// exactly as the table declares them (the fifth links into
// ARCHITECTURE.md and is free text).
func TestREADMEKnobTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "<!-- knobs:begin -->\n")
	body, _, ok2 := strings.Cut(rest, "<!-- knobs:end -->")
	if !ok || !ok2 {
		t.Fatal("README.md has no <!-- knobs:begin --> … <!-- knobs:end --> block")
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		t.Fatal("README knob table has no header")
	}
	rows := lines[2:] // header and separator
	if len(rows) != len(epg.Knobs) {
		t.Fatalf("README lists %d knobs, epg.Knobs has %d", len(rows), len(epg.Knobs))
	}
	// GitHub's heading anchors: lower case, punctuation dropped, spaces
	// to hyphens.
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]bool{}
	for _, line := range strings.Split(string(arch), "\n") {
		if title := strings.TrimLeft(line, "#"); title != line {
			slug := strings.Map(func(r rune) rune {
				switch {
				case r == ' ':
					return '-'
				case r == '-' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
					return r
				}
				return -1
			}, strings.ToLower(strings.TrimSpace(title)))
			anchors[slug] = true
		}
	}
	var spec epg.Spec
	sv := reflect.ValueOf(&spec).Elem()
	for i, k := range epg.Knobs {
		field := ""
		for f := 0; f < sv.NumField(); f++ {
			if sv.Field(f).Addr().Interface() == k.Field(&spec) {
				field = sv.Type().Field(f).Name
			}
		}
		flagCell, legal := "`-"+k.Name+"`", k.Legal()
		if k.NoFlag {
			flagCell = "—"
		}
		if legal == "" {
			legal = "—"
		}
		want := []string{"`" + field + "`", flagCell, legal, k.Help}
		cells := strings.Split(strings.Trim(rows[i], "|"), " | ")
		if len(cells) != len(want)+1 {
			t.Errorf("row %d has %d cells, want %d: %s", i, len(cells), len(want)+1, rows[i])
			continue
		}
		for c := range want {
			if got := strings.TrimSpace(cells[c]); got != want[c] {
				t.Errorf("knob %s, column %d: README has %q, the table declares %q", k.Name, c+1, got, want[c])
			}
		}
		_, anchor, _ := strings.Cut(cells[len(want)], "](ARCHITECTURE.md#")
		anchor, _, _ = strings.Cut(anchor, ")")
		if !anchors[anchor] {
			t.Errorf("knob %s: details cell links to no ARCHITECTURE.md heading: %q", k.Name, cells[len(want)])
		}
	}
}
