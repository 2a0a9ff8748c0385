// Command bench is the repository's wall-clock benchmark: five fixed op
// schedules over inputs made from a seed, six metrics from an untraced
// run (three of them steady enough to be gated), and a per-layer ladder
// from a traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the timed region the
// round counts below were sized for.
const defaultSeconds = 14

// traceFile is where the traced run writes its Chrome trace.
const traceFile = ".bench_build/trace.json"

// tracedRounds is how many rounds of each workload the traced run
// records; the named workload interleaves as many untraced ones.
const tracedRounds = 3

// workloadNames lists the workloads in report order.
var workloadNames = []string{"kernels", "ingest", "study", "serve-read", "serve-mutate"}

// sizedRounds is each workload's timed round count at defaultSeconds,
// sized from the round times in README.md so that the timed region is
// about defaultSeconds and the headline op gets at least 200 samples.
var sizedRounds = map[string]int{
	"kernels": 21, "ingest": 16, "study": 25, "serve-read": 18, "serve-mutate": 16,
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "kernels":
		return newKernelsWL(cfg), nil
	case "ingest":
		return newIngestWL(cfg), nil
	case "study":
		return newStudyWL(cfg), nil
	case "serve-read":
		return newServeWL(cfg, false), nil
	case "serve-mutate":
		return newServeWL(cfg, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// timedRounds is the timed round count of a run: the sized count scaled to
// the requested seconds. It is a function of the flags alone — a fixed
// schedule, never a stop-watch.
func (cfg config) timedRounds(name string) int {
	if cfg.rounds > 0 {
		return cfg.rounds
	}
	return max(1, int(math.Round(float64(sizedRounds[name])*float64(cfg.seconds)/defaultSeconds)))
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// reported holds the untraced run's wall-clock metrics (reportedDefs)
	// and steal its own noise reading (see bench.steal_share); both
	// travel with saved results, not in the result line.
	reported map[string]value
	steal    float64
}

// runUntraced measures the named workload for its end-to-end metrics.
func runUntraced(cfg config, out io.Writer) (result, error) {
	w, err := newWorkload(cfg.workload, cfg)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	m, err := measure(w, plan{setupPasses: setupPasses, rounds: cfg.timedRounds(cfg.workload)})
	if err != nil {
		return result{}, err
	}
	metrics, err := endToEnd(m, w.headline())
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "rounds %d headline %s samples %d steal_share %.4f\n",
		len(m.rounds), w.headline(), len(m.lat(w.headline())), m.steal)
	ops, failed, errs := m.counts()
	res := report(out, measuredDefs, metrics, ops, failed, errs)
	res.steal = m.steal
	return res, nil
}

// runTraced runs every workload under the tracer, each followed by its
// rung pass, and derives the per-layer ladder. The named workload
// interleaves untraced rounds, whose ratio to the traced ones is the
// tracing overhead.
func runTraced(cfg config, out io.Writer) (result, error) {
	tr := newTracer()
	c := &ladder{named: cfg.workload, ms: map[string]*measured{}, rungs: map[string]*rec{}}
	if _, err := newWorkload(cfg.workload, cfg); err != nil {
		return result{}, err
	}
	var ops, failed int
	var errs []string
	for _, name := range workloadNames {
		w, err := newWorkload(name, cfg)
		if err != nil {
			return result{}, err
		}
		p := plan{setupPasses: 1, rounds: tracedRounds, tr: tr}
		if cfg.rounds > 0 {
			p.rounds = cfg.rounds
		}
		if name == cfg.workload {
			p.rounds, p.alternate = 2*p.rounds, true
		}
		m, err := measure(w, p)
		if err != nil {
			w.close()
			return result{}, err
		}
		c.ms[name] = m
		rr := newRec(tr.lane(), false)
		rr.allocs = true
		w.rungs(rr)
		c.rungs[name] = rr
		w.close()
		o, f, e := m.counts()
		ops, failed, errs = ops+o+rr.ops, failed+f+rr.failed, append(append(errs, e...), rr.errs...)
	}
	c.spans = tr.all()
	if err := checkNesting(c.spans); err != nil {
		failed++
		errs = append(errs, "trace: "+err.Error())
	}

	defs := layerMetrics()
	metrics := make(map[string]value, len(defs))
	mdefs := make([]metricDef, len(defs))
	for i, d := range defs {
		metrics[d.name] = value{d.get(c), d.unit}
		mdefs[i] = d.metricDef
	}
	// A metric with no samples is a broken schedule, not a zero.
	failed += len(c.errs)
	errs = append(errs, c.errs...)

	shares := layerShares(c.spans)
	for _, wl := range sortedKeys(shares) {
		for _, layer := range sortedKeys(shares[wl]) {
			fmt.Fprintf(out, "share %s %s %.4f\n", wl, layer, shares[wl][layer])
		}
	}
	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return result{}, err
		}
		if err := writeChromeTrace(cfg.traceOut, c.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "trace %s spans %d\n", cfg.traceOut, len(c.spans))
	}
	return report(out, mdefs, metrics, ops, failed, errs), nil
}

// report prints every metric by name with its unit, then the counts,
// and assembles the result. The wall-clock metrics outside the gated
// set print as "reported" lines and stay out of the result's metrics.
func report(out io.Writer, defs []metricDef, metrics map[string]value, ops, failed int, errs []string) result {
	res := result{Metrics: map[string]value{}, reported: map[string]value{}}
	for _, d := range defs {
		kind, into := "metric", res.Metrics
		if isReported(d.name) {
			kind, into = "reported", res.reported
		}
		into[d.name] = metrics[d.name]
		fmt.Fprintf(out, "%s %s %.6g %s\n", kind, d.name, metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(out, "ops %d failed %d\n", ops, failed)
	for _, e := range errs {
		fmt.Fprintf(out, "failure %s\n", e)
	}
	res.Correct, res.Attempted, res.Failed = failed == 0, ops, failed
	return res
}

func isReported(name string) bool {
	for _, d := range reportedDefs {
		if d.name == name {
			return true
		}
	}
	return false
}

// run executes one benchmark run and prints its report; the last line
// is the result as one JSON object.
func run(cfg config, out io.Writer) (result, error) {
	fmt.Fprintf(out, "bench workload=%s seed=%d graph-seed=%d seconds=%d trace=%v host: %s\n",
		cfg.workload, cfg.seed, cfg.instance(), cfg.seconds, cfg.trace, stampHost())
	if cfg.seconds != defaultSeconds && cfg.rounds == 0 {
		fmt.Fprintf(out, "note: -seconds %d scales the round counts sized for %d; compare results only at equal -seconds\n",
			cfg.seconds, defaultSeconds)
	}
	runOne := runUntraced
	if cfg.trace {
		runOne = runTraced
	}
	res, err := runOne(cfg, out)
	if err != nil {
		return res, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: kernels, ingest, study, serve-read or serve-mutate")
	seed := flag.Uint64("seed", 1, "the run's seed: schedule order, query targets, client split, harness seeds")
	graphSeed := flag.Uint64("graph-seed", defaultGraphSeed, "the instance's seed: graph, traversal sources, serve-mutate's stream")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed region the round count is scaled to")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ladder (Chrome trace in "+traceFile+") instead of the end-to-end measurement")
	aa := flag.Int("aa", 0, "run two interleaved sets of N runs per workload and print the A/A table")
	compare := flag.Bool("compare", false, "compare two saved result files: -compare a.jsonl b.jsonl")
	save := flag.String("save", "", "append this run's result to a JSON-lines file, for -compare")
	flag.Parse()

	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args(), os.Stdout)
	case *aa > 0:
		err = runAA(*aa, *seconds, os.Stdout)
	default:
		if *seconds < 1 {
			err = fmt.Errorf("-seconds must be at least 1")
			break
		}
		cfg := config{workload: *workload, seed: *seed, graphSeed: *graphSeed, seconds: *seconds, trace: *trace != 0, traceOut: traceFile}
		var res result
		res, err = run(cfg, os.Stdout)
		if err == nil && *save != "" {
			err = appendResult(*save, savedRun{Workload: cfg.workload, Seed: cfg.seed, Host: stampHost(), Steal: res.steal, Result: res, Reported: res.reported})
		}
		if err == nil && !res.Correct {
			err = fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
