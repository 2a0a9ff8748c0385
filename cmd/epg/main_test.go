package main

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcl-repro/epg"
)

// runFlagsGolden is `epg run`'s flag surface — name=default, sorted —
// as `epg run -h` printed it at the commit before the flags were
// derived from epg.Knobs. The knob table may reword a usage string; it
// may not add, drop, rename or re-default a flag.
const runFlagsGolden = `alg=BFS
compress=false
csv=
dataset=kron-16
divisor=64
engines=
freq=
grain=
mutations=
nodes=0
partition=
placement=
power=false
remote-penalty=0
roots=32
sched=
seed=1
sockets=0
sync-sssp=false
threads=32
`

func TestRunFlagSurfaceUnchanged(t *testing.T) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	defineRunFlags(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		got.WriteString(f.Name + "=" + f.DefValue + "\n")
		if f.Usage == "" {
			t.Errorf("-%s has no usage string", f.Name)
		}
	})
	if got.String() != runFlagsGolden {
		t.Errorf("epg run flags moved:\n got:\n%s\nwant:\n%s", got.String(), runFlagsGolden)
	}
}

// TestRunFlagsBindSpecFields parses one value per knob flag and checks
// it lands in the Spec field the knob owns, and nowhere else.
func TestRunFlagsBindSpecFields(t *testing.T) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	spec, _, _ := defineRunFlags(fs)
	err := fs.Parse([]string{
		"-sched", "numa", "-sockets", "2", "-remote-penalty", "1.5", "-grain", "adaptive",
		"-placement", "firsttouch", "-freq", "balanced", "-compress", "-sync-sssp",
		"-nodes", "4", "-partition", "2d", "-mutations", "4x64@0.25", "-alg", "PR", "-roots", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := spec.Mutations
	if ms == nil || *ms != (epg.MutationSchedule{Batches: 4, BatchSize: 64, DeleteFrac: 0.25}) {
		t.Fatalf("-mutations parsed to %+v", ms)
	}
	spec.Mutations = nil
	want := epg.Spec{
		Dataset: "kron-16", Algorithm: epg.PageRank, Threads: 32, Roots: 3, Seed: 1,
		Sched: epg.SchedNUMA, Sockets: 2, RemotePenalty: 1.5, Grain: epg.GrainAdaptive,
		Placement: epg.PlacementFirstTouch, FreqState: epg.FreqBalanced, Compress: true,
		SyncSSSP: true, Nodes: 4, Partition: epg.Partition2D,
	}
	if !reflect.DeepEqual(*spec, want) {
		t.Errorf("parsed spec\n got %+v\nwant %+v", *spec, want)
	}
	for _, bad := range []string{"4x", "x64", "4x64@", "four"} {
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		fs.SetOutput(new(strings.Builder))
		defineRunFlags(fs)
		if err := fs.Parse([]string{"-mutations", bad}); err == nil {
			t.Errorf("-mutations %q accepted", bad)
		}
	}
}

// TestAnalyzeRendersInPaperOrder: a multi-algorithm CSV used to render
// its sections in map order, differently from run to run.
func TestAnalyzeRendersInPaperOrder(t *testing.T) {
	s := newSuite(64, 1)
	g, err := s.Dataset("kron-6")
	if err != nil {
		t.Fatal(err)
	}
	var results []epg.Result
	for _, alg := range []epg.Algorithm{epg.WCC, epg.PageRank, epg.BFS} {
		rs, err := s.Run(epg.Spec{Algorithm: alg, Engines: []string{"GAP"}, Threads: 4, Roots: 1}, g)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, rs...)
	}
	var csv bytes.Buffer
	if err := epg.WriteCSV(&csv, results); err != nil {
		t.Fatal(err)
	}
	if results, err = epg.ReadCSV(&csv); err != nil {
		t.Fatal(err)
	}
	var first, second strings.Builder
	analyze(&first, s, results, false)
	analyze(&second, s, results, false)
	if first.String() != second.String() {
		t.Errorf("two analyses of one CSV differ:\n%s\n---\n%s", &first, &second)
	}
	out := first.String()
	bfs, pr, wcc := strings.Index(out, "BFS Time"), strings.Index(out, "PR Time"), strings.Index(out, "WCC Time")
	if bfs < 0 || bfs > pr || pr > wcc {
		t.Errorf("sections not in the paper's order (BFS at %d, PR at %d, WCC at %d):\n%s", bfs, pr, wcc, out)
	}
}

// TestStudyRefusesDatasetWithCheckOrWrite: the committed file is pinned
// to one dataset, so neither gate nor rewrite may run on another.
func TestStudyRefusesDatasetWithCheckOrWrite(t *testing.T) {
	for _, args := range [][]string{
		{"serving", "-check", "-dataset", "kron-8"},
		{"serving", "-write", "-dataset", "kron-8"},
		{"serving", "-check", "-write"},
		{"nosuch"},
		{},
	} {
		if err := cmdStudy(args); err == nil {
			t.Errorf("epg study %v accepted", args)
		}
	}
}
