// Package logfmt emits and parses per-engine log files.
//
// The paper's framework collects execution times "by parsing log
// files" (phase 4 of Fig. 1): every system logs differently, and the
// Bash/AWK parsers of the original normalize them into one CSV. This
// package reproduces that pipeline: Emit writes a run's log in the
// engine's native style — including the GraphMat bullet format quoted
// under Table I — and Parse recovers normalized records from any of
// them. The round trip is exercised by the harness and tests.
package logfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
)

// Emit writes r's log in the engine's native style. The writer is
// typically a file per (engine, dataset, algorithm, trial), as in the
// original framework.
func Emit(w io.Writer, r core.Result) error {
	var err error
	switch r.Engine {
	case "Graph500":
		_, err = fmt.Fprintf(w,
			"SCALE: from %s\nNBFS: 1\ngraph_generation: ignored\nconstruction_time: %.9f\nbfs_time[%d]: %.9f\nbfs_nedge[%d]: %d\n",
			r.Dataset, r.ConstructionSec, r.Trial, r.AlgorithmSec, r.Trial, r.EdgesExamined)
	case "GAP":
		_, err = fmt.Fprintf(w,
			"Build Time: %.5f\nTrial Time: %.5f\nEdges Examined: %d\nIterations: %d\n",
			r.ConstructionSec, r.AlgorithmSec, r.EdgesExamined, r.Iterations)
	case "GraphBIG":
		_, err = fmt.Fprintf(w,
			"== %s read+construct time: %.6f sec\n== %s compute time: %.6f sec\n== iteration count: %d\n",
			r.Dataset, r.FileReadSec, strings.ToLower(string(r.Algorithm)), r.AlgorithmSec, r.Iterations)
	case "GraphMat":
		// The bullet format the paper quotes below Table I.
		_, err = fmt.Fprintf(w,
			"Finished file read of %s. time: %.5f\nload graph: %.5f sec\ninitialize engine: 8.3e-05 sec\nrun algorithm 1 (count degree): 0.0 sec\nrun algorithm 2 (compute %s): %.6f sec\nprint output: 0.0 sec\nniterations: %d\n",
			r.Dataset, r.FileReadSec, r.FileReadSec+r.ConstructionSec,
			strings.ToLower(string(r.Algorithm)), r.AlgorithmSec, r.Iterations)
	case "PowerGraph":
		_, err = fmt.Fprintf(w,
			"INFO: loaded graph %s\nINFO: engine iterations: %d\nFinished Running engine in %.6f seconds.\n",
			r.Dataset, r.Iterations, r.AlgorithmSec)
	default:
		return fmt.Errorf("logfmt: no log format for engine %q", r.Engine)
	}
	return err
}

// maxLineBytes is the longest line Parse and ReadCSV accept: a limit
// for the scanner's buffer to grow to, never a size to start it at.
// Parse starts at parseBufBytes, a little over an engine log's longest
// line, where the scanner's own start is 4 KB: a study parses one small
// log per result.
const (
	maxLineBytes  = 1 << 20
	parseBufBytes = 256
)

// Parse reads one engine log and fills the timing fields of a Result
// whose identity fields (Engine, Dataset, Algorithm, Threads, Trial,
// Root) the caller provides — exactly the information the original
// framework encodes in log file names.
func Parse(rd io.Reader, identity core.Result) (core.Result, error) {
	out := identity
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, parseBufBytes), maxLineBytes)
	var loadGraph float64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		// Graph500.
		case strings.HasPrefix(line, "construction_time:"):
			out.ConstructionSec = parseTail(line, "construction_time:")
			out.HasConstruction = true
		case strings.HasPrefix(line, "bfs_time["):
			if i := strings.Index(line, "]:"); i >= 0 {
				out.AlgorithmSec = parseFloat(line[i+2:])
			}
		case strings.HasPrefix(line, "bfs_nedge["):
			if i := strings.Index(line, "]:"); i >= 0 {
				out.EdgesExamined = int64(parseFloat(line[i+2:]))
			}

		// GAP.
		case strings.HasPrefix(line, "Build Time:"):
			out.ConstructionSec = parseTail(line, "Build Time:")
			out.HasConstruction = true
		case strings.HasPrefix(line, "Trial Time:"):
			out.AlgorithmSec = parseTail(line, "Trial Time:")
		case strings.HasPrefix(line, "Edges Examined:"):
			out.EdgesExamined = int64(parseTail(line, "Edges Examined:"))
		case strings.HasPrefix(line, "Iterations:"):
			out.Iterations = int(parseTail(line, "Iterations:"))

		// GraphBIG.
		case strings.Contains(line, "read+construct time:"):
			out.FileReadSec = parseBefore(line, "sec", "time:")
		case strings.Contains(line, "compute time:"):
			out.AlgorithmSec = parseBefore(line, "sec", "time:")
		case strings.HasPrefix(line, "== iteration count:"):
			out.Iterations = int(parseTail(line, "== iteration count:"))

		// GraphMat.
		case strings.HasPrefix(line, "Finished file read"):
			if i := strings.Index(line, "time:"); i >= 0 {
				out.FileReadSec = parseFloat(line[i+5:])
			}
		case strings.HasPrefix(line, "load graph:"):
			loadGraph = parseBefore(line, "sec", "load graph:")
		case strings.HasPrefix(line, "run algorithm 2"):
			out.AlgorithmSec = parseBefore(line, "sec", "):")
		case strings.HasPrefix(line, "niterations:"):
			out.Iterations = int(parseTail(line, "niterations:"))

		// PowerGraph.
		case strings.HasPrefix(line, "Finished Running engine in"):
			out.AlgorithmSec = parseBefore(line, "seconds", "in")
		case strings.HasPrefix(line, "INFO: engine iterations:"):
			out.Iterations = int(parseTail(line, "INFO: engine iterations:"))
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("logfmt: %v", err)
	}
	// GraphMat logs "load graph" as file read + construction.
	if loadGraph > 0 {
		out.ConstructionSec = loadGraph - out.FileReadSec
		out.HasConstruction = true
	}
	if out.AlgorithmSec == 0 {
		return out, fmt.Errorf("logfmt: no algorithm time found for %s", identity.Engine)
	}
	return out, nil
}

// parseTail parses the float following the given prefix.
func parseTail(line, prefix string) float64 {
	return parseFloat(strings.TrimPrefix(line, prefix))
}

// parseBefore extracts the float between the last occurrence of
// `after` and the token `unit`.
func parseBefore(line, unit, after string) float64 {
	s := line
	if i := strings.LastIndex(s, after); i >= 0 {
		s = s[i+len(after):]
	}
	if i := strings.Index(s, unit); i >= 0 {
		s = s[:i]
	}
	return parseFloat(s)
}

func parseFloat(s string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0
	}
	return v
}

// CSVHeader is the normalized record header (phase 4's output format).
const CSVHeader = "engine,dataset,algorithm,threads,trial,root,file_read_s,construction_s,algorithm_s,wall_s,iterations,edges_examined,cpu_j,ram_j,cpu_w,ram_w"

// WriteCSV writes records in the normalized CSV layout.
func WriteCSV(w io.Writer, results []core.Result) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, CSVHeader)
	for _, r := range results {
		fmt.Fprintf(bw, "%s,%s,%s,%d,%d,%d,%.9g,%.9g,%.9g,%.9g,%d,%d,%.6g,%.6g,%.6g,%.6g\n",
			r.Engine, r.Dataset, r.Algorithm, r.Threads, r.Trial, r.Root,
			r.FileReadSec, r.ConstructionSec, r.AlgorithmSec, r.WallSec,
			r.Iterations, r.EdgesExamined,
			r.CPUJoules, r.RAMJoules, r.AvgCPUWatts, r.AvgRAMWatts)
	}
	return bw.Flush()
}

// ReadCSV parses the normalized CSV produced by WriteCSV.
func ReadCSV(rd io.Reader) ([]core.Result, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, maxLineBytes)
	var out []core.Result
	first := true
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if line == CSVHeader {
				continue
			}
		}
		f := strings.Split(line, ",")
		if len(f) != 16 {
			return nil, fmt.Errorf("logfmt: csv line %d has %d fields, want 16", lineNo, len(f))
		}
		threads, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("logfmt: csv line %d: bad threads %q", lineNo, f[3])
		}
		trial, _ := strconv.Atoi(f[4])
		root, _ := strconv.ParseUint(f[5], 10, 32)
		iters, _ := strconv.Atoi(f[10])
		edges, _ := strconv.ParseInt(f[11], 10, 64)
		out = append(out, core.Result{
			Engine:          f[0],
			Dataset:         f[1],
			Algorithm:       engines.Algorithm(f[2]),
			Threads:         threads,
			Trial:           trial,
			Root:            uint32(root),
			FileReadSec:     parseFloat(f[6]),
			ConstructionSec: parseFloat(f[7]),
			AlgorithmSec:    parseFloat(f[8]),
			WallSec:         parseFloat(f[9]),
			Iterations:      iters,
			EdgesExamined:   edges,
			CPUJoules:       parseFloat(f[12]),
			RAMJoules:       parseFloat(f[13]),
			AvgCPUWatts:     parseFloat(f[14]),
			AvgRAMWatts:     parseFloat(f[15]),
		})
	}
	return out, sc.Err()
}
