package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg/internal/server"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test holds the
// program to.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// smokeScaleDelta shrinks every graph by four scales; smokeRounds is
// the fewest rounds that still give each headline op the 200 samples
// its p95 needs.
const smokeScaleDelta = 4

var smokeRounds = map[string]int{"kernels": 7, "ingest": 13, "study": 17, "serve-read": 1, "serve-mutate": 2}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkReport holds a run's printed report to the declared metrics:
// each named exactly once, with its unit, and the last line the result
// object with the same names.
func checkReport(t *testing.T, report string, res result, want map[string]string) {
	t.Helper()
	printed, reported := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "reported" {
			reported[f[1]]++
		}
		if len(f) == 4 && f[0] == "metric" {
			printed[f[1]]++
			if !nameRE.MatchString(f[1]) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", f[1])
			}
			if want[f[1]] != f[3] {
				t.Errorf("metric %s printed with unit %q, BENCHMARK.json declares %q", f[1], f[3], want[f[1]])
			}
		}
	}
	for name, unit := range want {
		if printed[name] != 1 {
			t.Errorf("metric %s printed %d times, want once", name, printed[name])
		}
		if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
			t.Errorf("result has %s = %+v, want unit %q", name, got, unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result carries %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	// The wall-clock metrics outside the gated set: printed once each by
	// an untraced run, never part of the result line.
	for _, d := range reportedDefs {
		if _, traced := want["bench.trace_overhead"]; !traced && (reported[d.name] != 1 || res.reported[d.name].Value <= 0) {
			t.Errorf("%s reported %d times with value %g, want once and positive", d.name, reported[d.name], res.reported[d.name].Value)
		}
		if _, in := res.Metrics[d.name]; in {
			t.Errorf("%s is in the result line; only BENCHMARK.json's metrics belong there", d.name)
		}
	}
	lines := strings.Split(strings.TrimSpace(report), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Errorf("last line is not the result object: %v", err)
	}
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("attempted %d failed %d correct %v\n%s", res.Attempted, res.Failed, res.Correct, report)
	}
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the schedules are sized for %d", bf.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, the program has %v", names, workloadNames)
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, the program reports %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := bf.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, got, d)
		}
	}
	defs := layerMetrics()
	if len(bf.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics declared, the program reports %d", len(bf.PerLayer), len(defs))
	}
	for i, d := range defs {
		got := bf.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, got, d.metricDef)
		}
	}
}

// TestSmokeEndToEnd runs every workload on the default instance and on
// another one (-graph-seed: another Kronecker graph, other sources,
// another mutation stream), so the correctness checks inside the
// benchmark see more than one graph shape.
func TestSmokeEndToEnd(t *testing.T) {
	bf := loadBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range bf.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, wl := range workloadNames {
		for _, inst := range []uint64{defaultGraphSeed, 12} {
			t.Run(fmt.Sprintf("%s/graph-%d", wl, inst), func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: wl, seed: inst + 2, graphSeed: inst, seconds: defaultSeconds,
					scaleDelta: smokeScaleDelta, rounds: smokeRounds[wl]}
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				checkReport(t, out.String(), res, want)
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s = %g, end-to-end metrics are never 0", name, v.Value)
					}
				}
			})
		}
	}
}

// TestSeedKeepsTheWork holds the split between the two seeds: the run's
// seed reorders a round and redraws what costs nothing, and leaves the
// instance - graph, traversal sources, serve-mutate's stream - alone.
func TestSeedKeepsTheWork(t *testing.T) {
	sources := func(w *serveWL) map[server.Query]int {
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		got := map[server.Query]int{}
		for _, qs := range w.queries {
			for _, q := range qs {
				if q.Op == server.OpBFS || q.Op == server.OpSSSP || q.Op == server.OpKHop {
					got[server.Query{Op: q.Op, Source: q.Source}]++
				}
			}
		}
		return got
	}
	cfg := config{seed: 1, scaleDelta: smokeScaleDelta}
	a := sources(newServeWL(cfg, false))
	cfg.seed = 2
	b := sources(newServeWL(cfg, false))
	if !maps.Equal(a, b) {
		t.Error("two seeds of one instance send different traversal sources")
	}
	cfg.graphSeed = 12
	if c := sources(newServeWL(cfg, false)); maps.Equal(a, c) {
		t.Error("two instances send the same traversal sources")
	}

	order := func(seed uint64) []kernelCall {
		w := newKernelsWL(config{seed: seed, scaleDelta: smokeScaleDelta})
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		calls := make([]kernelCall, len(w.calls))
		for i, c := range w.calls {
			calls[i] = kernelCall{alg: c.alg, root: c.root} // instances differ between set-ups
		}
		return calls
	}
	k1, k2 := order(1), order(2)
	if slices.Equal(k1, k2) {
		t.Error("two seeds run the kernels round in the same order")
	}
	count := func(calls []kernelCall) map[kernelCall]int {
		m := map[kernelCall]int{}
		for _, c := range calls {
			m[c]++
		}
		return m
	}
	if !maps.Equal(count(k1), count(k2)) {
		t.Error("two seeds run different kernel calls")
	}
}

// TestInteractionsFile keeps INTERACTIONS.json - every per-layer metric
// with the measured metrics it should move, on which workloads, and
// where it must stay flat - equal to the table the program holds, and
// the table well-formed. BENCH_UPDATE=1 rewrites the file.
func TestInteractionsFile(t *testing.T) {
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
		interaction
	}
	measured, workloads := map[string]bool{}, map[string]bool{}
	for _, d := range measuredDefs {
		measured[d.name] = true
	}
	for _, wl := range workloadNames {
		workloads[wl] = true
	}
	var entries []entry
	for _, d := range layerMetrics() {
		entries = append(entries, entry{d.name, d.unit, d.better, d.row})
		for _, mv := range d.row.Moves {
			if !measured[mv.Metric] || len(mv.On) == 0 {
				t.Errorf("%s moves %q on %v: not a measured metric, or nowhere", d.name, mv.Metric, mv.On)
			}
			for _, wl := range mv.On {
				if !workloads[wl] {
					t.Errorf("%s moves %s on unknown workload %q", d.name, mv.Metric, wl)
				}
				// setup_s moves wherever construction runs; a round metric
				// cannot both move and stay flat on one workload.
				if mv.Metric != "setup_s" && slices.Contains(d.row.FlatOn, wl) {
					t.Errorf("%s both moves %s on %s and stays flat there", d.name, mv.Metric, wl)
				}
			}
		}
		for _, wl := range d.row.FlatOn {
			if !workloads[wl] {
				t.Errorf("%s stays flat on unknown workload %q", d.name, wl)
			}
		}
	}
	// One entry a line.
	want := []byte("[\n")
	for i, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			want = append(want, ",\n"...)
		}
		want = append(want, line...)
	}
	want = append(want, "\n]\n"...)
	if os.Getenv("BENCH_UPDATE") != "" {
		if err := os.WriteFile("INTERACTIONS.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("INTERACTIONS.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("INTERACTIONS.json differs from the program's table; run BENCH_UPDATE=1 go test -run TestInteractionsFile")
	}
}

func TestSmokeTraced(t *testing.T) {
	bf := loadBenchmarkFile(t)
	want := map[string]string{}
	for _, m := range bf.PerLayer {
		want[m.Name] = m.Unit
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	cfg := config{workload: "serve-mutate", seed: 2, seconds: defaultSeconds, trace: true,
		scaleDelta: smokeScaleDelta, rounds: 2, traceOut: tracePath}
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	checkReport(t, out.String(), res, want)

	// The trace file loads as JSON, and its spans nest and share round
	// ids (run already counts a nesting violation as a failure; this
	// checks the file that was written).
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
	type iv struct {
		lo, hi float64
		round  int
	}
	byID := map[int]iv{}
	layers := map[string]bool{}
	for _, e := range doc.TraceEvents {
		byID[e.Args["id"]] = iv{e.TS, e.TS + e.Dur, e.Args["round"]}
		layers[e.Cat] = true
	}
	const slack = 1e-3 // µs: float rounding of the nanosecond stamps
	for _, e := range doc.TraceEvents {
		p := e.Args["parent"]
		if p < 0 {
			continue
		}
		parent, ok := byID[p]
		if !ok {
			t.Fatalf("span %s has unknown parent %d", e.Name, p)
		}
		if e.TS < parent.lo-slack || e.TS+e.Dur > parent.hi+slack {
			t.Errorf("span %s [%g, %g] escapes its parent [%g, %g]", e.Name, e.TS, e.TS+e.Dur, parent.lo, parent.hi)
		}
		if e.Args["round"] != parent.round {
			t.Errorf("span %s is in round %d, its parent in %d", e.Name, e.Args["round"], parent.round)
		}
	}
	for _, layer := range []string{"bench", "engines", "graph", "harness", "kronecker", "logfmt", "parallel", "power", "server", "simmachine", "snap"} {
		if !layers[layer] {
			t.Errorf("no span in layer %s", layer)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	l := tr.lane()
	a := l.begin("bench", "a")
	b := l.begin("graph", "b")
	l.end(b)
	c := l.begin("graph", "c")
	l.end(c)
	l.end(a)
	spans := tr.all()
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(spans)
	dur := func(s span) int64 { return int64(s.End - s.Start) }
	if got, want := int64(self[spans[0].ID]), dur(spans[0])-dur(spans[1])-dur(spans[2]); got != want {
		t.Errorf("self time of the parent = %d ns, want %d", got, want)
	}
	// A leaked span must be reported.
	l.begin("bench", "open")
	if err := checkNesting(tr.all()); err == nil {
		t.Error("an unclosed span passed the nesting check")
	}
}
