// Command epg is the easy-parallel-graph-* CLI. Its first five
// subcommands mirror the single-shell-command phases of the paper's
// Fig. 1:
//
//	epg gen        -dataset kron-16 -out graph.snap        # generate
//	epg homogenize -in graph.snap -outdir data/            # convert per engine
//	epg run        -dataset kron-16 -alg BFS -threads 32   # run + parse
//	epg sweep      -dataset kron-18 -alg BFS               # Figs. 5/6
//	epg analyze    -csv results.csv                        # figures/tables
//
// (Installation, phase 1 of the original, is `go build` here.) The rest —
// power, graphalytics, study — are the paper's other experiments and this
// repo's committed studies, one command each; `epg help` lists them.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/hpcl-repro/epg"
	"github.com/hpcl-repro/epg/internal/study"
)

// commands declares each subcommand once: dispatch and usage loop over it.
var commands = []struct {
	name, help string
	run        func(args []string) error
}{
	{"gen", "generate a dataset and write it in SNAP format", cmdGen},
	{"homogenize", "convert a SNAP file into every engine's format", cmdHomogenize},
	{"run", "run an algorithm across engines, emit CSV and figures", cmdRun},
	{"sweep", "thread-count sweep for the scalability figures", cmdSweep},
	{"analyze", "render figures/tables from a results CSV", cmdAnalyze},
	{"power", "the power and energy study (Table III, Fig. 9, DVFS sweep)", cmdPower},
	{"graphalytics", "the Graphalytics-methodology comparator (Tables I/II, Fig. 7)", cmdGraphalytics},
	{"study", "print, check or rewrite a committed FIG_*.csv study: epg study <name>", cmdStudy},
}

func main() {
	arg := ""
	if len(os.Args) > 1 {
		arg = os.Args[1]
	}
	for _, c := range commands {
		if c.name == arg {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "epg: %v\n", err)
				os.Exit(1)
			}
			return
		}
	}
	help := arg == "-h" || arg == "--help" || arg == "help"
	if arg != "" && !help {
		fmt.Fprintf(os.Stderr, "epg: unknown subcommand %q\n", arg)
	}
	fmt.Fprint(os.Stderr, "usage: epg <subcommand> [flags]\n\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-13s %s\n", c.name, c.help)
	}
	fmt.Fprint(os.Stderr, "\nRun 'epg <subcommand> -h' for flags.\n")
	if !help {
		os.Exit(2)
	}
}

func newSuite(divisor int, seed uint64) *epg.Suite {
	return epg.NewSuite(epg.Options{RealWorldDivisor: divisor, Seed: seed, Warnings: os.Stderr})
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dataset := fs.String("dataset", "kron-16", "dataset name (kron-<scale>, dota-league, cit-Patents)")
	out := fs.String("out", "", "output SNAP file (default stdout)")
	divisor := fs.Int("divisor", 64, "real-world dataset scale divisor (1 = full size)")
	seed := fs.Uint64("seed", 1, "generation seed")
	fs.Parse(args)

	s := newSuite(*divisor, *seed)
	g, err := s.Dataset(*dataset)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := s.Homogenize(w, g, "snap"); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %s: %d vertices, %d edges\n", *dataset, g.NumVertices(), g.NumEdges())
	return nil
}

func cmdHomogenize(args []string) error {
	fs := flag.NewFlagSet("homogenize", flag.ExitOnError)
	in := fs.String("in", "", "input SNAP file")
	outdir := fs.String("outdir", ".", "output directory")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("homogenize: -in required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	s := newSuite(64, 1)
	g, err := s.ReadSNAP(f, filepath.Base(*in))
	if err != nil {
		return err
	}
	for _, format := range epg.Formats() {
		path := filepath.Join(*outdir, strings.TrimSuffix(filepath.Base(*in), ".snap")+"."+format)
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := s.Homogenize(out, g, format); err != nil {
			out.Close()
			return err
		}
		out.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

// defineRunFlags declares `epg run`'s flags on fs — the identity and
// output flags by hand, then one flag per epg.Knobs entry — each bound
// straight to the field it sets.
func defineRunFlags(fs *flag.FlagSet) (spec *epg.Spec, csvPath *string, divisor *int) {
	spec = &epg.Spec{}
	fs.StringVar(&spec.Dataset, "dataset", "kron-16", "dataset name")
	fs.StringVar((*string)(&spec.Algorithm), "alg", "BFS", "algorithm (BFS, SSSP, PR, CDLP, LCC, WCC)")
	fs.IntVar(&spec.Threads, "threads", 32, "virtual thread count")
	fs.IntVar(&spec.Roots, "roots", 32, "roots / trials")
	fs.Func("engines", "comma-separated engine `names` (default: every engine that has the algorithm)", func(v string) error {
		if v != "" {
			spec.Engines = strings.Split(v, ",")
		}
		return nil
	})
	csvPath = fs.String("csv", "", "write the phase-4 CSV here")
	fs.BoolVar(&spec.MeasurePower, "power", false, "meter power per root (Table III, Fig. 9)")
	divisor = fs.Int("divisor", 64, "real-world dataset scale divisor")
	fs.Uint64Var(&spec.Seed, "seed", 1, "seed")
	for _, k := range epg.Knobs {
		if k.NoFlag {
			continue
		}
		usage := k.Help
		if legal := k.Legal(); legal != "" {
			usage += " [" + legal + "]"
		}
		switch p := k.Field(spec).(type) {
		case *string:
			fs.StringVar(p, k.Name, "", usage)
		case *int:
			fs.IntVar(p, k.Name, 0, usage)
		case *float64:
			fs.Float64Var(p, k.Name, 0, usage)
		case *bool:
			fs.BoolVar(p, k.Name, false, usage)
		case **epg.MutationSchedule:
			fs.Func(k.Name, usage, func(v string) (err error) {
				*p, err = parseMutations(v)
				return err
			})
		}
	}
	return spec, csvPath, divisor
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	spec, csvPath, divisor := defineRunFlags(fs)
	fs.Parse(args)
	if spec.Mutations != nil {
		spec.Mutations.Seed = spec.Seed // known only once every flag is parsed
	}

	s := newSuite(*divisor, spec.Seed)
	g, err := s.Dataset(spec.Dataset)
	if err != nil {
		return err
	}
	results, err := s.Run(*spec, g)
	if err != nil {
		return err
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := epg.WriteCSV(f, results); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d rows)\n", *csvPath, len(results))
	}
	renderFor(os.Stdout, spec.Algorithm, s, results, spec.MeasurePower)
	return nil
}

// parseMutations parses the schedule syntax "BxS@F"; the empty string
// is no schedule.
func parseMutations(s string) (*epg.MutationSchedule, error) {
	if s == "" {
		return nil, nil
	}
	bad := func() error {
		return fmt.Errorf("bad schedule %q (want BxS@F, e.g. 4x64@0.25)", s)
	}
	body, fracStr, hasFrac := strings.Cut(s, "@")
	bStr, sizeStr, ok := strings.Cut(body, "x")
	if !ok {
		return nil, bad()
	}
	batches, err := strconv.Atoi(bStr)
	if err != nil {
		return nil, bad()
	}
	size, err := strconv.Atoi(sizeStr)
	if err != nil {
		return nil, bad()
	}
	frac := 0.0
	if hasFrac {
		if frac, err = strconv.ParseFloat(fracStr, 64); err != nil {
			return nil, bad()
		}
	}
	return &epg.MutationSchedule{Batches: batches, BatchSize: size, DeleteFrac: frac}, nil
}

func renderFor(w io.Writer, alg epg.Algorithm, s *epg.Suite, results []epg.Result, withPower bool) {
	title := fmt.Sprintf("%s Time (s)", alg)
	epg.RenderTimeFigure(w, title, results)
	fmt.Fprintln(w)
	epg.RenderConstructionFigure(w, fmt.Sprintf("%s Data Structure Construction (s)", alg), results)
	if alg == epg.PageRank || alg == epg.CDLP {
		fmt.Fprintln(w)
		epg.RenderIterationsFigure(w, fmt.Sprintf("%s Iterations", alg), results)
	}
	if withPower {
		fmt.Fprintln(w)
		s.RenderEnergyTable(w, results)
		fmt.Fprintln(w)
		s.RenderPowerFigure(w, results)
	}
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	dataset := fs.String("dataset", "kron-18", "dataset name")
	alg := fs.String("alg", "BFS", "algorithm")
	threadsFlag := fs.String("threads", "1,2,4,8,16,32,64,72", "thread counts")
	trials := fs.Int("trials", 4, "trials per point (the paper used 4)")
	enginesFlag := fs.String("engines", "", "comma-separated engine subset")
	divisor := fs.Int("divisor", 64, "real-world dataset scale divisor")
	seed := fs.Uint64("seed", 1, "seed")
	fs.Parse(args)

	var threadCounts []int
	for _, tok := range strings.Split(*threadsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("sweep: bad thread count %q", tok)
		}
		threadCounts = append(threadCounts, n)
	}
	s := newSuite(*divisor, *seed)
	g, err := s.Dataset(*dataset)
	if err != nil {
		return err
	}
	spec := epg.Spec{Dataset: *dataset, Algorithm: epg.Algorithm(*alg), Seed: *seed}
	if *enginesFlag != "" {
		spec.Engines = strings.Split(*enginesFlag, ",")
	}
	series, err := s.Sweep(spec, g, threadCounts, *trials)
	if err != nil {
		return err
	}
	return epg.RenderScalingFigure(os.Stdout,
		fmt.Sprintf("%s scalability on %s (Figs. 5/6)", *alg, *dataset), series)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	csvPath := fs.String("csv", "", "results CSV from 'epg run'")
	withPower := fs.Bool("power", false, "render the energy table and power figure")
	fs.Parse(args)
	if *csvPath == "" {
		return fmt.Errorf("analyze: -csv required")
	}
	f, err := os.Open(*csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	results, err := epg.ReadCSV(f)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("analyze: empty CSV")
	}
	analyze(os.Stdout, newSuite(64, 1), results, *withPower)
	return nil
}

// analyze renders results: Fig. 8 when datasets are mixed, otherwise one
// section per algorithm — in the paper's order, not a map's, so the same
// CSV renders the same way every time.
func analyze(w io.Writer, s *epg.Suite, results []epg.Result, withPower bool) {
	byAlg := map[epg.Algorithm][]epg.Result{}
	multiDataset := map[string]bool{}
	for _, r := range results {
		byAlg[r.Algorithm] = append(byAlg[r.Algorithm], r)
		multiDataset[r.Dataset] = true
	}
	if len(multiDataset) > 1 {
		epg.RenderRealWorldFigure(w, results)
		return
	}
	for _, alg := range []epg.Algorithm{epg.BFS, epg.SSSP, epg.PageRank, epg.CDLP, epg.LCC, epg.WCC} {
		if rs := byAlg[alg]; len(rs) > 0 {
			renderFor(w, alg, s, rs, withPower)
		}
	}
}

// cmdPower is the paper's power and energy study — Table III and Fig. 9
// on the RAPL-analogue energy model — and, with -freq-sweep, the joules
// and EDP of every modeled DVFS point, which the paper's fixed-governor
// table cannot show.
func cmdPower(args []string) error {
	fs := flag.NewFlagSet("power", flag.ExitOnError)
	spec := epg.Spec{Algorithm: epg.BFS, MeasurePower: true}
	fs.StringVar(&spec.Dataset, "dataset", "kron-16", "dataset (the paper uses kron-22; kron-16 keeps laptop runtimes — absolute joules are NOT comparable to Table III)")
	fs.IntVar(&spec.Threads, "threads", 32, "virtual thread count")
	fs.IntVar(&spec.Roots, "roots", 32, "BFS roots")
	fs.Uint64Var(&spec.Seed, "seed", 1, "seed")
	fs.StringVar(&spec.FreqState, "freq", "", "modeled DVFS operating point: turbo (default), balanced, or powersave")
	freqSweep := fs.Bool("freq-sweep", false, "run all three frequency states and tabulate joules + EDP per state")
	fs.Parse(args)

	s := newSuite(64, spec.Seed)
	g, err := s.Dataset(spec.Dataset)
	if err != nil {
		return err
	}
	results, err := s.Run(spec, g)
	if err != nil {
		return err
	}

	fmt.Printf("machine: %s\n", s.MachineName())
	fmt.Printf("sleep baseline (10 s sleep): %.2f W\n\n", s.MeasureSleepBaseline(10))
	s.RenderEnergyTable(os.Stdout, results)
	fmt.Println()
	s.RenderPowerFigure(os.Stdout, results)

	if !*freqSweep {
		return nil
	}
	fmt.Printf("\nDVFS sweep (means over %d roots):\n", spec.Roots)
	fmt.Printf("%-10s %12s %12s %14s\n", "freq", "time (s)", "energy (J)", "EDP (J*s)")
	for _, state := range []string{epg.FreqTurbo, epg.FreqBalanced, epg.FreqPowersave} {
		spec.FreqState = state
		rs, err := s.Run(spec, g)
		if err != nil {
			return err
		}
		var sec, joules float64
		for _, r := range rs {
			sec += r.AlgorithmSec
			joules += r.CPUJoules + r.RAMJoules
		}
		n := float64(len(rs))
		fmt.Printf("%-10s %12.5g %12.5g %14.5g\n", state, sec/n, joules/n, (joules/n)*(sec/n))
	}
	return nil
}

// cmdGraphalytics is the Graphalytics-methodology comparator: one run per
// (platform, algorithm, dataset) cell under each platform's own time
// accounting — Tables I and II, and Fig. 7's HTML page per platform.
func cmdGraphalytics(args []string) error {
	fs := flag.NewFlagSet("graphalytics", flag.ExitOnError)
	datasetsFlag := fs.String("datasets", "cit-Patents,dota-league", "comma-separated datasets (Table I uses the real-world pair; pass kron-22 for Table II)")
	threads := fs.Int("threads", 32, "virtual thread count")
	divisor := fs.Int("divisor", 64, "real-world dataset scale divisor (1 = full size)")
	seed := fs.Uint64("seed", 1, "seed")
	htmlDir := fs.String("html", "", "write one HTML page per platform into this directory (Fig. 7)")
	fs.Parse(args)

	s := newSuite(*divisor, *seed)
	var all []epg.GraphalyticsCell
	for _, name := range strings.Split(*datasetsFlag, ",") {
		g, err := s.Dataset(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		cells, err := s.Graphalytics(g, *threads)
		if err != nil {
			return err
		}
		all = append(all, cells...)
	}

	title := fmt.Sprintf("Graphalytics sample run times (seconds), %d threads, one run per experiment", *threads)
	epg.RenderGraphalyticsTable(os.Stdout, title, all)

	if *htmlDir == "" {
		return nil
	}
	for _, platform := range []string{"GraphBIG", "PowerGraph", "GraphMat"} {
		path := filepath.Join(*htmlDir, "graphalytics-"+strings.ToLower(platform)+".html")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := epg.RenderGraphalyticsHTML(f, platform, all); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

// cmdStudy is `epg study <name> [-check | -write] [-dataset name]`: the
// named study as CSV on stdout, or checked against / written to its
// committed file (run it from the repo root).
func cmdStudy(args []string) error {
	fs := flag.NewFlagSet("study", flag.ExitOnError)
	check := fs.Bool("check", false, "regenerate the pinned study and fail if the committed file differs")
	write := fs.Bool("write", false, "rewrite the committed file")
	dataset := fs.String("dataset", "", "run on this dataset instead of the pinned one, host columns live (stdout only)")
	var s *study.Study
	var names []string
	for _, d := range study.All {
		names = append(names, d.Name)
		if len(args) > 0 && args[0] == d.Name {
			s = d
		}
	}
	if s == nil {
		return fmt.Errorf("study: want one of %s", strings.Join(names, ", "))
	}
	fs.Parse(args[1:])
	switch {
	case *check && *write, (*check || *write) && *dataset != "":
		return fmt.Errorf("study: -check, -write and -dataset exclude each other: %s is pinned to %s", s.File, s.Dataset)
	case *check:
		committed, err := os.ReadFile(s.File)
		if err == nil {
			err = s.Check(committed)
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "%s matches the regenerated study\n", s.File)
		}
		return err
	case *write:
		var buf bytes.Buffer // the file is replaced only by a study that ran to the end
		if err := s.Run(&buf, ""); err != nil {
			return err
		}
		return os.WriteFile(s.File, buf.Bytes(), 0o644)
	}
	return s.Run(os.Stdout, *dataset)
}
