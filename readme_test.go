package epg_test

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg"
	"github.com/hpcl-repro/epg/internal/engines/all"
)

// TestREADMEKnobTable holds README's "Execution knobs" table equal to
// epg.Knobs: one row per knob, in table order, whose first four cells
// are the Spec field, the CLI flag, the legal values and the help line
// exactly as the table declares them (the fifth links into
// ARCHITECTURE.md and is free text).
func TestREADMEKnobTable(t *testing.T) {
	rows := readmeTable(t, "knobs")
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

// readmeTable returns the body rows of the table README.md keeps between
// <!-- name:begin --> and <!-- name:end -->.
func readmeTable(t *testing.T, name string) []string {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "<!-- "+name+":begin -->\n")
	body, _, ok2 := strings.Cut(rest, "<!-- "+name+":end -->")
	if !ok || !ok2 {
		t.Fatalf("README.md has no <!-- %s:begin --> … <!-- %s:end --> block", name, name)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		t.Fatalf("README %s table has no header", name)
	}
	return lines[2:] // header and separator
}

// TestREADMEEngineTable holds README's engine table equal to the
// engines' declarations (all.Registry): one row per engine, in registry
// order, with its kernels, whether reading and building are separate
// phases, and the engine-side knobs it honors under their core.Knobs
// names.
func TestREADMEEngineTable(t *testing.T) {
	rows := readmeTable(t, "engines")
	reg := all.Registry()
	if len(rows) != len(reg) {
		t.Fatalf("README lists %d engines, the registry %d", len(rows), len(reg))
	}
	// A spec asking for every engine-side knob: what a declaration drops
	// of it is what it does not honor.
	var every epg.Spec
	for _, k := range epg.Knobs {
		if k.Engine == nil {
			continue
		}
		switch p := k.Field(&every).(type) {
		case *bool:
			*p = true
		case **epg.MutationSchedule:
			*p = &epg.MutationSchedule{Batches: 1, BatchSize: 1}
		default:
			t.Fatalf("engine-side knob %s has a field type this test cannot request: %T", k.Name, p)
		}
	}
	for i, d := range reg {
		var kernels, knobs []string
		for _, alg := range d.Kernels {
			kernels = append(kernels, string(alg))
		}
		_, dropped := every.EngineOptions(d)
		for _, k := range epg.Knobs {
			if k.Engine != nil && !slices.Contains(dropped, k.Name) {
				knobs = append(knobs, k.Name)
			}
		}
		phases := "one phase"
		if d.SeparateConstruction {
			phases = "separate phases"
		}
		knobCell := strings.Join(knobs, ", ")
		if knobCell == "" {
			knobCell = "—"
		}
		want := []string{d.Name, strings.Join(kernels, ", "), phases, knobCell}
		cells := strings.Split(strings.Trim(rows[i], "|"), " | ")
		if len(cells) != len(want) {
			t.Errorf("row %d has %d cells, want %d: %s", i, len(cells), len(want), rows[i])
			continue
		}
		for c := range want {
			if got := strings.TrimSpace(cells[c]); got != want[c] {
				t.Errorf("engine %s, column %d: README has %q, the declaration says %q", d.Name, c+1, got, want[c])
			}
		}
	}
}
