package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// savedRun is one line of a saved result file.
type savedRun struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Host     hostStamp `json:"host"`
	Steal    float64   `json:"steal_share"`
	Result   result    `json:"result"`
	// Reported holds the wall-clock metrics the result line leaves out.
	Reported map[string]value `json:"reported"`
}

// appendResult adds one run to a JSON-lines file.
func appendResult(path string, run savedRun) error {
	line, err := json.Marshal(run)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults loads a JSON-lines result file.
func readResults(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []savedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r savedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// compareFiles prints the comparison table for two saved result files:
// the parent's runs and the change's (alternating their order while
// measuring is the caller's job).
func compareFiles(paths []string, out io.Writer) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files, got %d", len(paths))
	}
	a, err := readResults(paths[0])
	if err != nil {
		return err
	}
	b, err := readResults(paths[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A = %s (%d runs), B = %s (%d runs)\n\n", paths[0], len(a), paths[1], len(b))
	if !writeTable(out, a, b) {
		return fmt.Errorf("B is worse than A beyond a bound, or a gated metric's spread exceeds it")
	}
	return nil
}

// aaFiles are where -aa keeps the two sets' raw results, one JSON line
// per run, so the table can be rendered again with -compare.
var aaFiles = [2]string{".bench_build/aa-A.jsonl", ".bench_build/aa-B.jsonl"}

// runAA measures the same code twice: per workload and seed, one run
// for set A then one for set B, each in its own process, so the two
// sets interleave in time and share whatever the host was doing. A
// workload's runs are consecutive: the host drifts by 20 % over tens of
// minutes, and runs spread across the whole session would report that
// drift as the workload's spread.
func runAA(n, seconds int, out io.Writer) error {
	if n < 5 {
		return fmt.Errorf("-aa needs at least 5 runs per set, got %d", n)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, path := range aaFiles {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			return err
		}
	}
	for _, wl := range workloadNames {
		for seed := 1; seed <= n; seed++ {
			for _, path := range aaFiles {
				cmd := exec.Command(exe, "-workload", wl, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.Itoa(seconds), "-save", path)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, seed, err)
				}
			}
		}
	}
	var sets [2][]savedRun
	for i, path := range aaFiles {
		if sets[i], err = readResults(path); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "A/A: two interleaved sets of %d runs per workload (seeds 1-%d), %d s timed region; host: %s\n\n",
		n, n, seconds, stampHost())
	ok := writeTable(out, sets[0], sets[1])
	fmt.Fprintf(out, "\nbench.steal_share of each run (set A / set B):\n\n| workload | seed | A | B |\n|---|---|---|---|\n")
	for i, a := range sets[0] {
		fmt.Fprintf(out, "| %s | %d | %.4f | %.4f |\n", a.Workload, a.Seed, a.Steal, sets[1][i].Steal)
	}
	if !ok {
		return fmt.Errorf("the two sets disagree beyond a bound")
	}
	return nil
}

// writeTable prints, per workload and measured metric, both sets'
// medians and quartiles, each set's spread (inter-quartile distance
// over median), the relative gap of B's median over A's, the bound, and
// a verdict.
//
// A gated metric (BENCHMARK.json's end_to_end) is judged as the
// acceptance driver judges it: PASS when B is not worse than A by more
// than the bound and, except for setup_s, neither spread exceeds it.
//
// A reported metric (reportedDefs) is judged on the gap, as the issue
// defines its bound, and a spread wider than the bound makes the pair
// "unresolved", not unchanged - unless every run of B reads better than
// every run of A. Only a resolved worsening beyond the bound fails.
func writeTable(out io.Writer, a, b []savedRun) bool {
	series := func(runs []savedRun, wl, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if r.Workload != wl {
				continue
			}
			if v, ok := r.Result.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			} else if v, ok := r.Reported[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(out, "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | gap B/A | bound | gated | verdict |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	pass := true
	for _, wl := range workloadNames {
		for _, d := range measuredDefs {
			xa, xb := series(a, wl, d.name), series(b, wl, d.name)
			if len(xa) < 2 || len(xb) < 2 {
				continue
			}
			a1, a2, a3, _ := quartiles(xa) // cannot fail: at least 2 samples
			b1, b2, b3, _ := quartiles(xb)
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			gap := relGap(a2, b2)
			wide := sa > d.bound || sb > d.bound
			gated, verdict := "yes", "PASS"
			switch {
			case !isReported(d.name):
				if gap > d.bound || (d.name != "setup_s" && wide) {
					verdict, pass = "FAIL", false
				}
			case wide && slices.Max(xb) < slices.Min(xa):
				gated, verdict = "no", "better"
			case wide:
				gated, verdict = "no", "unresolved"
			case gap > d.bound:
				gated, verdict, pass = "no", "WORSE", false
			default:
				gated = "no"
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s | %s |\n",
				wl, d.name, d.unit, a2, a1, a3, b2, b1, b3, 100*sa, 100*sb, 100*gap, 100*d.bound, gated, verdict)
		}
	}
	return pass
}
