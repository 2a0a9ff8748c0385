package engines_test

import (
	"testing"

	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/graph"
)

// fakeKnobs records setter invocations; which interfaces it exposes is
// controlled by embedding it in the narrower fakes below.
type fakeKnobs struct {
	syncCalls     []bool
	compressCalls []bool
}

func (f *fakeKnobs) SetSyncSSSP(on bool) { f.syncCalls = append(f.syncCalls, on) }
func (f *fakeKnobs) SetCompress(on bool) { f.compressCalls = append(f.compressCalls, on) }

type fakeSupporter struct{ supports bool }

func (f fakeSupporter) SupportsMutations() bool { return f.supports }

type fakeStreamer struct{}

func (fakeStreamer) Mutate(graph.Batch) (*engines.MutationReport, error) { return nil, nil }
func (fakeStreamer) IncrementalPageRank(engines.PROpts) (*engines.PRResult, error) {
	return nil, nil
}
func (fakeStreamer) IncrementalWCC() (*engines.WCCResult, error) { return nil, nil }

func TestConfigureZeroOptionsTouchesNothing(t *testing.T) {
	f := &fakeKnobs{}
	ap := engines.Configure(f, engines.Options{})
	if ap != (engines.Applied{}) {
		t.Fatalf("zero options reported %+v", ap)
	}
	if len(f.syncCalls)+len(f.compressCalls) != 0 {
		t.Fatal("zero options invoked a setter")
	}
}

func TestConfigureSettersAppliedWhenSupported(t *testing.T) {
	f := &fakeKnobs{}
	ap := engines.Configure(f, engines.Options{SyncSSSP: true, Compress: true})
	if !ap.SyncSSSP || !ap.Compress {
		t.Fatalf("supported knobs not reported applied: %+v", ap)
	}
	if len(f.syncCalls) != 1 || !f.syncCalls[0] {
		t.Fatalf("SetSyncSSSP calls = %v", f.syncCalls)
	}
	if len(f.compressCalls) != 1 || !f.compressCalls[0] {
		t.Fatalf("SetCompress calls = %v", f.compressCalls)
	}
	if ap.Mutations {
		t.Fatalf("unrequested knobs reported applied: %+v", ap)
	}
}

func TestConfigureUnsupportedTargetReportsDropped(t *testing.T) {
	ap := engines.Configure(struct{}{}, engines.Options{
		SyncSSSP: true, Compress: true, Mutations: true,
	})
	if ap != (engines.Applied{}) {
		t.Fatalf("bare struct reported support: %+v", ap)
	}
}

func TestConfigureMutationsProbe(t *testing.T) {
	cases := []struct {
		name   string
		target any
		want   bool
	}{
		{"streamer instance", fakeStreamer{}, true},
		{"supporting engine", fakeSupporter{supports: true}, true},
		{"non-supporting engine", fakeSupporter{supports: false}, false},
		{"plain target", struct{}{}, false},
	}
	for _, c := range cases {
		ap := engines.Configure(c.target, engines.Options{Mutations: true})
		if ap.Mutations != c.want {
			t.Errorf("%s: Mutations = %v, want %v", c.name, ap.Mutations, c.want)
		}
	}
}

func TestConfigureProbeHasNoSideEffects(t *testing.T) {
	f := &fakeKnobs{}
	engines.Configure(f, engines.Options{Mutations: true})
	if len(f.syncCalls)+len(f.compressCalls) != 0 {
		t.Fatal("mutation probe invoked a setter")
	}
}
