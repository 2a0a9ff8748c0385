// Command epg is the easy-parallel-graph-* CLI. Its subcommands
// mirror the five single-shell-command phases of the paper's Fig. 1:
//
//	epg gen        -dataset kron-16 -out graph.snap        # generate
//	epg homogenize -in graph.snap -outdir data/            # convert per engine
//	epg run        -dataset kron-16 -alg BFS -threads 32   # run + parse
//	epg sweep      -dataset kron-18 -alg BFS               # Figs. 5/6
//	epg analyze    -csv results.csv -alg BFS               # figures/tables
//
// (Installation, phase 1 of the original, is `go build` here.)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/hpcl-repro/epg"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "homogenize":
		err = cmdHomogenize(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "epg: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "epg: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: epg <gen|homogenize|run|sweep|analyze> [flags]

  gen         generate a dataset and write it in SNAP format
  homogenize  convert a SNAP file into every engine's format
  run         run an algorithm across engines, emit CSV and figures
  sweep       thread-count sweep for the scalability figures
  analyze     render figures/tables from a results CSV

Run 'epg <subcommand> -h' for flags.
`)
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
	renderFor(spec.Algorithm, s, results, spec.MeasurePower)
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

func renderFor(alg epg.Algorithm, s *epg.Suite, results []epg.Result, withPower bool) {
	title := fmt.Sprintf("%s Time (s)", alg)
	epg.RenderTimeFigure(os.Stdout, title, results)
	fmt.Println()
	epg.RenderConstructionFigure(os.Stdout, fmt.Sprintf("%s Data Structure Construction (s)", alg), results)
	if alg == epg.PageRank || alg == epg.CDLP {
		fmt.Println()
		epg.RenderIterationsFigure(os.Stdout, fmt.Sprintf("%s Iterations", alg), results)
	}
	if withPower {
		fmt.Println()
		s.RenderEnergyTable(os.Stdout, results)
		fmt.Println()
		s.RenderPowerFigure(os.Stdout, results)
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
	s := newSuite(64, 1)
	// Datasets may be mixed (Fig. 8); group by algorithm+dataset.
	byAlg := map[epg.Algorithm][]epg.Result{}
	for _, r := range results {
		byAlg[r.Algorithm] = append(byAlg[r.Algorithm], r)
	}
	multiDataset := map[string]bool{}
	for _, r := range results {
		multiDataset[r.Dataset] = true
	}
	if len(multiDataset) > 1 {
		epg.RenderRealWorldFigure(os.Stdout, results)
		return nil
	}
	for alg, rs := range byAlg {
		renderFor(alg, s, rs, *withPower)
	}
	return nil
}
