package study

import (
	"github.com/hpcl-repro/epg/internal/graph"
	"github.com/hpcl-repro/epg/internal/server"
)

// Serving is FIG_serving_study.csv: the epgd admission pipeline under a
// virtual-time load sweep. Per adjacency representation one calibration
// pass measures modeled capacity; each row then offers a Poisson stream
// at a multiple of it and records what admission did (ARCHITECTURE.md,
// "Serving", reads the table). Everything is modeled and single-threaded;
// drift means the admission controller, the token bucket, the watermark,
// the deadline hooks, the sketch or the cost model moved. The geometry
// is server.DefaultStudyConfig, where cmd/epgd-loadgen starts from too.
var Serving = declare("serving", "FIG_serving_study.csv",
	server.DefaultStudyConfig().Dataset, server.DefaultStudyConfig().Seed, ServingColumns,
	func(el *graph.EdgeList, dataset string) ([]server.StudyRow, error) {
		cfg := server.DefaultStudyConfig()
		cfg.Dataset = dataset
		return server.GenerateStudy(el, cfg)
	})

// ServingColumns is the column table of a serving sweep, all modeled.
var ServingColumns = []Column[server.StudyRow]{
	{"dataset", func(r *server.StudyRow) any { return r.Dataset }, false},
	{"servers", func(r *server.StudyRow) any { return r.Servers }, false},
	{"queue_cap", func(r *server.StudyRow) any { return r.QueueCap }, false},
	{"watermark", func(r *server.StudyRow) any { return r.Watermark }, false},
	{"compress", func(r *server.StudyRow) any { return r.Compress }, false},
	{"offered_x", func(r *server.StudyRow) any { return r.OfferedX }, false},
	{"offered_qps", func(r *server.StudyRow) any { return r.OfferedQPS }, false},
	{"bucket_qps", func(r *server.StudyRow) any { return r.BucketQPS }, false},
	{"deadline_us", func(r *server.StudyRow) any { return r.DeadlineUS }, false},
	{"queries", func(r *server.StudyRow) any { return r.Stats.Offered }, false},
	{"admitted", func(r *server.StudyRow) any { return r.Stats.Admitted }, false},
	{"shed_queue_full", func(r *server.StudyRow) any { return r.Stats.ShedQueueFull }, false},
	{"shed_throttled", func(r *server.StudyRow) any { return r.Stats.ShedThrottled }, false},
	{"completed", func(r *server.StudyRow) any { return r.Stats.Completed }, false},
	{"degraded", func(r *server.StudyRow) any { return r.Stats.Degraded }, false},
	{"deadline_exceeded", func(r *server.StudyRow) any { return r.Stats.DeadlineExceeded }, false},
	{"errors", func(r *server.StudyRow) any { return r.Stats.Errors }, false},
	{"max_depth", func(r *server.StudyRow) any { return r.Stats.MaxDepth }, false},
	{"p50_us", func(r *server.StudyRow) any { return r.Stats.P50US }, false},
	{"p99_us", func(r *server.StudyRow) any { return r.Stats.P99US }, false},
	{"mean_us", func(r *server.StudyRow) any { return r.Stats.MeanUS }, false},
}
