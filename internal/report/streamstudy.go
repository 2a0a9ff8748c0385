package report

import (
	"bufio"
	"fmt"
	"io"
)

// StreamStudyRow is one cell of the streaming-mutation study: one
// mutation batch applied to one (algorithm, batch size, delete
// fraction) configuration, with the modeled cost of the incremental
// path — applying the batch to the resident structures (MutateSec)
// plus re-converging the result from the previous vector
// (MaintainSec) — against the displaced alternative, a rebuild plus
// cold recompute on the post-batch graph (RecomputeSec), measured on
// an identically-configured fresh machine. Speedup is
// RecomputeSec / (MutateSec + MaintainSec), the figure's y-axis: how
// many times cheaper maintaining the answer is than recomputing it,
// per batch geometry. Everything is modeled (wall-clock-free and
// host-independent), and the incremental result is conformance-walled
// bit-equal to the recompute inside the harness, so the table is
// bit-identical across runs, hosts, and worker counts — an
// exact-match diff is a valid CI gate.
type StreamStudyRow struct {
	Dataset      string
	Alg          string
	BatchSize    int
	DeleteFrac   float64
	Batch        int // 1-based batch index within the stream
	Iterations   int // incremental PR iterations (0 for WCC)
	MutateSec    float64
	MaintainSec  float64
	RecomputeSec float64
	Speedup      float64
}

// StreamStudyCSVHeader is the column layout of WriteStreamStudyCSV.
const StreamStudyCSVHeader = "dataset,alg,batch_size,delete_frac,batch,iterations,mutate_s,maintain_s,recompute_s,speedup"

// WriteStreamStudyCSV writes the streaming study as CSV for external
// plotting, one row per (algorithm, batch size, delete fraction,
// batch index).
func WriteStreamStudyCSV(w io.Writer, rows []StreamStudyRow) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, StreamStudyCSVHeader)
	for _, r := range rows {
		fmt.Fprintf(bw, "%s,%s,%d,%s,%d,%d,%s,%s,%s,%s\n",
			r.Dataset, r.Alg, r.BatchSize, csvFloat(r.DeleteFrac), r.Batch, r.Iterations,
			csvFloat(r.MutateSec), csvFloat(r.MaintainSec), csvFloat(r.RecomputeSec),
			csvFloat(r.Speedup))
	}
	return bw.Flush()
}
