package main

// An interaction is one row of the table written before measuring (see
// README.md, "How they should interact"): which of the six measured
// metrics a layer metric should move, on which workloads, and where it
// must leave them flat. A later performance change cites its row;
// INTERACTIONS.json carries the row of every per-layer metric, since
// BENCHMARK.json's per_layer entries may hold a name, a unit and a
// direction only.
type interaction struct {
	Moves  []move   `json:"moves"`
	FlatOn []string `json:"flat_on"`
}

// move names one measured metric and the workloads it should move on.
type move struct {
	Metric string   `json:"metric"`
	On     []string `json:"on"`
}

const wlK, wlI, wlS, wlSR, wlSM = "kernels", "ingest", "study", "serve-read", "serve-mutate"

var (
	// Dispatch and metering overhead of the shared runtime.
	rowDispatch = interaction{
		Moves:  []move{{"round_s", []string{wlS}}, {"cpu_s", []string{wlS}}, {"op_p95_ms", []string{wlSR}}},
		FlatOn: []string{wlI},
	}
	// Frontier primitives and the kernels themselves.
	rowKernel = interaction{
		Moves:  []move{{"round_s", []string{wlK}}, {"op_p95_ms", []string{wlK}}},
		FlatOn: []string{wlI},
	}
	// ... the BFS ones also under the server's bfs and khop queries.
	rowKernelBFS = interaction{
		Moves:  []move{{"round_s", []string{wlK, wlSR}}, {"op_p95_ms", []string{wlK, wlSR}}},
		FlatOn: []string{wlI},
	}
	// Bytes a traversal allocates: alloc_mb first, then the tail via GC.
	rowKernelAlloc = interaction{
		Moves:  []move{{"alloc_mb", []string{wlSR, wlK}}, {"op_p95_ms", []string{wlSR, wlK}}},
		FlatOn: []string{wlI},
	}
	// Generation and construction: paid in every round of ingest and
	// study and in everyone's set-up.
	rowBuild = interaction{
		Moves:  []move{{"round_s", []string{wlI, wlS}}, {"setup_s", []string{wlK, wlI, wlS, wlSR, wlSM}}},
		FlatOn: []string{wlK, wlSR, wlSM},
	}
	// Codec, file format and partitioner: ingest alone.
	rowCodec = interaction{
		Moves:  []move{{"round_s", []string{wlI}}},
		FlatOn: []string{wlK, wlS, wlSR, wlSM},
	}
	// The write path of the server.
	rowMutate = interaction{
		Moves:  []move{{"round_s", []string{wlSM}}, {"alloc_mb", []string{wlSM}}},
		FlatOn: []string{wlSR, wlK},
	}
	// ... whose structure update is also ingest's headline op.
	rowMutateApply = interaction{
		Moves:  []move{{"round_s", []string{wlSM}}, {"alloc_mb", []string{wlSM}}, {"op_p95_ms", []string{wlI}}},
		FlatOn: []string{wlSR, wlK},
	}
	// What a harness Run adds around the kernels.
	rowHarness = interaction{
		Moves:  []move{{"round_s", []string{wlS}}, {"op_p95_ms", []string{wlS}}},
		FlatOn: []string{wlK, wlSR, wlSM},
	}
	// Admission, queue, JSON and HTTP around a query that costs nothing.
	rowHTTP = interaction{
		Moves:  []move{{"cpu_s", []string{wlSR}}, {"round_s", []string{wlSR}}},
		FlatOn: []string{wlK, wlS},
	}
	// A traversal query end to end.
	rowQuery = interaction{
		Moves:  []move{{"round_s", []string{wlSR}}, {"op_p95_ms", []string{wlSR, wlSM}}},
		FlatOn: []string{wlI, wlS},
	}
	rowServerStart = interaction{
		Moves:  []move{{"setup_s", []string{wlSR, wlSM}}},
		FlatOn: []string{wlK, wlI, wlS},
	}
	// What readers feel beside a writer.
	rowInflation = interaction{
		Moves:  []move{{"op_p95_ms", []string{wlSM}}},
		FlatOn: []string{wlSR},
	}
	// Diagnostics and the benchmark's own readings move nothing.
	rowNone = interaction{Moves: []move{}, FlatOn: []string{}}
)
