package main

import (
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
