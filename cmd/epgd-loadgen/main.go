// Command epgd-loadgen generates a serving sweep: a deterministic
// virtual-time load sweep over the epgd admission pipeline. It
// calibrates the bench's capacity, then pushes Poisson query streams
// at multiples of it through the queue / token bucket / deadline /
// degradation machinery, and emits one CSV row per offered-load point,
// a pure function of (dataset, seed, config). On its defaults that is
// the serving study (`epg study serving`, FIG_serving_study.csv) and CI
// compares the two; the flags move the geometry off the pinned one.
//
//	epgd-loadgen -queue-cap 16 -multipliers 1,2,4 -out sweep.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/hpcl-repro/epg/internal/harness"
	"github.com/hpcl-repro/epg/internal/server"
	"github.com/hpcl-repro/epg/internal/study"
)

func main() {
	cfg := server.DefaultStudyConfig()
	fs := flag.NewFlagSet("epgd-loadgen", flag.ExitOnError)
	out := fs.String("out", "", "output CSV (default stdout)")
	fs.StringVar(&cfg.Dataset, "dataset", cfg.Dataset, "dataset")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "seed for the dataset and the arrival streams")
	fs.IntVar(&cfg.Servers, "servers", cfg.Servers, "virtual executors")
	fs.IntVar(&cfg.Threads, "threads", cfg.Threads, "modeled threads per executor")
	fs.IntVar(&cfg.QueueCap, "queue-cap", cfg.QueueCap, "bounded queue capacity")
	fs.IntVar(&cfg.Watermark, "watermark", cfg.Watermark, "degradation watermark")
	fs.IntVar(&cfg.NumQueries, "queries", cfg.NumQueries, "offered queries per load point")
	fs.Func("multipliers", fmt.Sprintf("comma-separated offered-load multipliers of calibrated capacity (default %v)", cfg.Multipliers),
		func(v string) (err error) {
			cfg.Multipliers, err = parseFloats(v)
			return err
		})
	fs.Parse(os.Args[1:])

	el, err := harness.ResolveDataset(cfg.Dataset, harness.DatasetOptions{Seed: cfg.Seed})
	if err != nil {
		fatal(err)
	}
	rows, err := server.GenerateStudy(el, cfg)
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := study.WriteCSV(w, study.ServingColumns, rows, true); err != nil {
		fatal(err)
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad multiplier %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "epgd-loadgen: %v\n", err)
	os.Exit(1)
}
