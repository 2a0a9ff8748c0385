// Scheduling-study artifact: the ROADMAP's "modeled time vs. policy
// across thread counts" figure, extended with the locality dimensions.
// Gated behind EPG_WRITE_SCHEDFIG=1 (it is a measurement, not a
// correctness check); run via `make benchfig`, which writes
// FIG_sched_study.csv locally (untracked — the committed artifact is
// the CI one below). The dynamic column grows with the thread count
// as the greedy shared-counter assignment loses to lane contention;
// the steal column tracks static until imbalance appears, then
// recovers it — the same story the paper tells about OpenMP
// schedule(dynamic) vs. Cilk-style runtimes. The sockets axis applies
// the locality model: at sockets > 1 flat stealing (steal) pays
// remote-steal and remote-chunk-access penalties for every
// cross-socket steal, while two-level stealing (numa) keeps most
// steals on-socket. The grain axis re-chunks every region
// frontier-proportionally (Spec.Grain = "adaptive"), which is what
// lets the locality columns separate for the *traversal* kernel: at
// fixed grains BFS levels split into too few chunks to steal at 16/32
// threads. The placement axis stacks the first-touch page-ownership
// model on top (Spec.Placement = "firsttouch"), charging
// remotely-placed resident data under all four policies — static and
// dynamic now have sockets>1 rows of their own. Every row additionally
// carries the energy axis: CPU/RAM/total joules from the power model
// integrated over the run's region trace, and the energy-delay
// product. The frequency axis (modeled DVFS operating points, swept on
// the firsttouch configuration) makes the table answer which policy ×
// grain × placement × frequency is fastest per joule — the paper's
// second measurement axis at modern scale. The compress axis runs the
// same kernels over the delta+varint adjacency (Spec.Compress): decode
// cycles are charged per compressed byte while the byte columns shrink
// to the encoded stream, so the on/off pairs quantify whether trading
// compute for bandwidth pays at each operating point.
//
// A second artifact serves CI: FIG_sched_study_ci.csv is the same
// table pinned to kron-12 with wall-clock zeroed, so it contains only
// modeled (bit-deterministic) numbers and an exact-match diff is a
// valid regression gate. `make benchfig-ci` rewrites it; `make
// benchfig-check` (the sched-study-drift CI job) regenerates the rows
// and fails on any byte difference — any drift in the cost model,
// scheduler simulations, grain policy, or placement model shows up as
// a failing diff tied to the commit that caused it.
package epg_test

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/hpcl-repro/epg/internal/core"
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/gap"
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/power"
	"github.com/hpcl-repro/epg/internal/report"
	"github.com/hpcl-repro/epg/internal/simmachine"
)

// schedStudyThreads is the virtual-thread axis (the paper's Fig. 5/6
// x-axis, plus the 72-thread full machine).
var schedStudyThreads = []int{1, 2, 4, 8, 16, 32, 64, 72}

// schedStudyConfigs is the (grain, placement, frequency, compress)
// axis: the historical fixed-grain table, the adaptive re-chunking
// alone, adaptive with the first-touch placement model stacked on top,
// on that headline locality configuration the DVFS sweep over the two
// lower modeled operating points, and the compressed-adjacency
// (delta+varint) variant of both the baseline and the headline
// configuration. Every row carries joules and EDP; the frequency and
// compress axes are swept on selected configurations rather than the
// full cross product, which keeps the artifact and the CI drift gate's
// regeneration time bounded while still answering the paper's energy
// question per policy × threads × sockets — and, for compress, whether
// trading decode cycles for bytes pays off at each operating point.
var schedStudyConfigs = []core.Spec{
	{Grain: "fixed", Placement: "none", FreqState: "turbo"},
	{Grain: "adaptive", Placement: "none", FreqState: "turbo"},
	{Grain: "adaptive", Placement: "firsttouch", FreqState: "turbo"},
	{Grain: "adaptive", Placement: "firsttouch", FreqState: "balanced"},
	{Grain: "adaptive", Placement: "firsttouch", FreqState: "powersave"},
	// Compressed adjacency: the sockets=1 baseline (fixed grain, no
	// placement) isolates the pure decode-cycles-for-bytes trade, and
	// the headline locality configuration shows it composed with
	// adaptive grain + first-touch placement, where the smaller
	// resident footprint also shrinks the remotely-placed byte stream.
	{Grain: "fixed", Placement: "none", FreqState: "turbo", Compress: true},
	{Grain: "adaptive", Placement: "firsttouch", FreqState: "turbo", Compress: true},
	// Modeled cluster: the fixed-grain baseline sharded across virtual
	// nodes, 1D blocked at 2 nodes and the greedy-vertex-cut 2D homes
	// at 4 — the rows carry the net_bytes column, and their presence in
	// the CI artifact makes the drift gate sensitive to every network
	// cost term (NetLatencyCycles, NetBytesFactor, the partitioners).
	{Grain: "fixed", Placement: "none", FreqState: "turbo", Nodes: 2, Partition: "1d"},
	{Grain: "fixed", Placement: "none", FreqState: "turbo", Nodes: 4, Partition: "2d"},
}

// schedStudyPolicies is the policy axis: every name the sched knob
// admits, in table order.
func schedStudyPolicies(t *testing.T) []string {
	for _, k := range core.Knobs {
		if k.Name == "sched" {
			return k.Values
		}
	}
	t.Fatal("core.Knobs has no sched entry")
	return nil
}

// schedStudySockets returns the socket axis for one (policy,
// placement) cell. Without placement, static and dynamic have no
// locality path at all — only their sockets=1 rows are emitted — while
// the steal policies sweep 1/2/4. With first-touch placement every
// policy pays locality penalties, so all four sweep the multi-socket
// points; sockets=1 rows are omitted there because placement is inert
// on one socket (byte-identical to the "none" rows above them).
func schedStudySockets(policy, placement string) []int {
	if placement == "firsttouch" {
		return []int{2, 4}
	}
	if policy == "static" || policy == "dynamic" {
		return []int{1}
	}
	return []int{1, 2, 4}
}

// generateSchedStudyRows runs GAP BFS and PageRank over the full
// policy × grain × placement × compress × threads × sockets matrix on
// el and returns the table. With modeledOnly the two host-dependent columns
// — wall-clock seconds and the real worker count (min(threads,
// GOMAXPROCS)) — are zeroed so the output is a pure function of the
// Spec dimensions (the CI artifact's requirement: the drift gate
// byte-compares it across machines with different CPU counts);
// otherwise both record this host's values as convenience columns.
func generateSchedStudyRows(t *testing.T, el *graph.EdgeList, modeledOnly bool) []report.SchedStudyRow {
	t.Helper()
	roots := tuneRootsFor(el, 1)
	root := roots[0]

	// The 2D cluster owner table is a pure function of the homogenized
	// graph and the cluster knobs — computed once per setting and shared
	// by every cell, the way the harness shares it across engines.
	csr := graph.BuildCSR(el, graph.BuildOptions{
		Symmetrize:    !el.Directed,
		DropSelfLoops: true,
		Dedup:         true,
	})
	type cluster struct {
		nodes     int
		partition string
	}
	owners := map[cluster][]int16{}

	var rows []report.SchedStudyRow
	for _, kernel := range []engines.Algorithm{engines.BFS, engines.PageRank} {
		for _, cfg := range schedStudyConfigs {
			for _, policy := range schedStudyPolicies(t) {
				for _, sockets := range schedStudySockets(policy, cfg.Placement) {
					for _, threads := range schedStudyThreads {
						// One Spec per cell; the knob table turns it into
						// the machine and the engine, exactly as
						// harness.Run does.
						spec := cfg
						spec.Dataset, spec.Algorithm = "sched-study", kernel
						spec.Sched, spec.Sockets, spec.Threads = policy, sockets, threads
						if err := spec.Validate(); err != nil {
							t.Fatal(err)
						}
						key := cluster{spec.Nodes, spec.Partition}
						owner, ok := owners[key]
						if !ok {
							owner = spec.Owners(csr)
							owners[key] = owner
						}
						m, pconsts := spec.NewMachine(simmachine.Haswell72(), power.DefaultConstants(), owner)
						eng := gap.New()
						// Before Load: the compressed structure is built
						// during construction (and charged there).
						if dropped := spec.ConfigureEngine(eng); dropped != nil {
							t.Fatalf("GAP dropped %v", dropped)
						}
						inst, err := eng.Load(el, m)
						if err != nil {
							t.Fatal(err)
						}
						inst.BuildStructure()
						m.Reset()
						meter := power.NewRAPL(m, pconsts)
						meter.Start()
						start := time.Now()
						if _, err := engines.RunAlgorithm(inst, kernel, root); err != nil {
							t.Fatal(err)
						}
						wall := time.Since(start).Seconds()
						rd := meter.End()
						workers := m.Workers()
						if modeledOnly {
							wall = 0
							workers = 0
						}
						// Aggregate charged work: the raw quantities the
						// model prices. Penalty charges land here even
						// when they miss the critical-path lane, which is
						// what makes the CI drift gate sensitive to every
						// cost-accounting change. The joules integrate
						// the power model over the same trace, so the
						// gate additionally pins every power constant.
						var total simmachine.Cost
						var netBytes float64
						for _, reg := range m.Trace() {
							total.Add(reg.Cost)
							netBytes += reg.NetBytes
						}
						compress := "off"
						if spec.Compress {
							compress = "on"
						}
						nodes, partition := spec.Nodes, spec.Partition
						if nodes < 2 {
							nodes, partition = 1, "none"
						}
						rows = append(rows, report.SchedStudyRow{
							Kernel:      string(kernel),
							Sched:       policy,
							Grain:       spec.Grain,
							Placement:   spec.Placement,
							Freq:        spec.FreqState,
							Compress:    compress,
							Threads:     threads,
							Sockets:     sockets,
							Nodes:       nodes,
							Partition:   partition,
							Workers:     workers,
							ModeledSec:  m.Elapsed(),
							Cycles:      total.Cycles,
							Bytes:       total.Bytes,
							NetBytes:    netBytes,
							Atomics:     total.Atomics,
							CPUJoules:   rd.CPUJoules,
							RAMJoules:   rd.RAMJoules,
							TotalJoules: rd.TotalJoules(),
							EDPJouleSec: rd.EDP(),
							WallSec:     wall,
						})
					}
				}
			}
		}
	}
	return rows
}

func TestWriteSchedStudy(t *testing.T) {
	if os.Getenv("EPG_WRITE_SCHEDFIG") == "" {
		t.Skip("set EPG_WRITE_SCHEDFIG=1 to rewrite FIG_sched_study.csv")
	}
	el, err := harnessDataset(kronName())
	if err != nil {
		t.Fatal(err)
	}
	rows := generateSchedStudyRows(t, el, false)
	f, err := os.Create("FIG_sched_study.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := report.WriteSchedStudyCSV(f, rows); err != nil {
		t.Fatal(err)
	}
	var tbl testWriter = func(p []byte) (int, error) {
		t.Logf("%s", p)
		return len(p), nil
	}
	report.SchedStudyTable(tbl, rows)
	t.Logf("wrote FIG_sched_study.csv (%d rows, dataset %s)", len(rows), kronName())
}

// schedStudyCIFile is the committed CI artifact; schedStudyCIDataset
// pins its scale in code so the gate never silently drifts with
// EPG_BENCH_SCALE.
const (
	schedStudyCIFile    = "FIG_sched_study_ci.csv"
	schedStudyCIDataset = "kron-12"
)

// schedStudyCIRows regenerates the pinned-scale, modeled-only table.
func schedStudyCIRows(t *testing.T) []report.SchedStudyRow {
	t.Helper()
	el, err := harnessDataset(schedStudyCIDataset)
	if err != nil {
		t.Fatal(err)
	}
	return generateSchedStudyRows(t, el, true)
}

// TestWriteSchedStudyCI rewrites FIG_sched_study_ci.csv (gated: it is
// an artifact writer, not a check; run via `make benchfig-ci` after an
// intentional cost-model change).
func TestWriteSchedStudyCI(t *testing.T) {
	if os.Getenv("EPG_WRITE_SCHEDFIG_CI") == "" {
		t.Skip("set EPG_WRITE_SCHEDFIG_CI=1 (make benchfig-ci) to rewrite FIG_sched_study_ci.csv")
	}
	rows := schedStudyCIRows(t)
	f, err := os.Create(schedStudyCIFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := report.WriteSchedStudyCSV(f, rows); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d rows, dataset %s)", schedStudyCIFile, len(rows), schedStudyCIDataset)
}

// TestSchedStudyCIDrift is the bench-regression gate (`make
// benchfig-check`, the sched-study-drift CI job): the regenerated
// modeled scheduling study must match the committed artifact byte for
// byte. Modeled costs are bit-deterministic — pure float64 arithmetic
// over Spec-derived seeds, no wall clock in the table — so an exact
// diff is valid: any mismatch means a commit changed modeled
// performance (cost model constants, scheduler simulation, grain
// policy, placement model) without regenerating the artifact, i.e. an
// unacknowledged perf change.
func TestSchedStudyCIDrift(t *testing.T) {
	if os.Getenv("EPG_SCHEDFIG_CHECK") == "" {
		t.Skip("set EPG_SCHEDFIG_CHECK=1 (make benchfig-check) to run the sched-study drift gate")
	}
	committed, err := os.ReadFile(schedStudyCIFile)
	if err != nil {
		t.Fatalf("no committed %s (run `make benchfig-ci` and commit it): %v", schedStudyCIFile, err)
	}
	rows := schedStudyCIRows(t)
	var regenerated bytes.Buffer
	if err := report.WriteSchedStudyCSV(&regenerated, rows); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(regenerated.Bytes(), committed) {
		t.Logf("%s matches the regenerated study exactly (%d rows)", schedStudyCIFile, len(rows))
		return
	}
	got := strings.Split(strings.TrimRight(regenerated.String(), "\n"), "\n")
	want := strings.Split(strings.TrimRight(string(committed), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("row count drifted: regenerated %d lines, committed %d", len(got), len(want))
	}
	shown := 0
	for i := 0; i < len(got) && i < len(want) && shown < 5; i++ {
		if got[i] != want[i] {
			t.Errorf("line %d drifted:\n  committed:   %s\n  regenerated: %s", i+1, want[i], got[i])
			shown++
		}
	}
	t.Fatalf("%s drifted from the regenerated modeled study: a change moved modeled "+
		"performance; if intentional, run `make benchfig-ci` and commit the new artifact "+
		"(and `make benchfig` for the full-scale figure)", schedStudyCIFile)
}

// testWriter adapts t.Logf to io.Writer for the quick-look table.
type testWriter func(p []byte) (int, error)

func (w testWriter) Write(p []byte) (int, error) { return w(p) }
