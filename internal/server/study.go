package server

import (
	"fmt"

	"github.com/hpcl-repro/epg/internal/graph"
)

// StudyConfig parameterizes the serving study: one calibration pass
// plus a sweep of offered-load multipliers over the fixed admission
// configuration. Everything downstream of the dataset and seed is
// modeled, so the emitted table is bit-deterministic.
type StudyConfig struct {
	Dataset    string
	Seed       uint64
	Servers    int
	Threads    int
	Landmarks  int
	QueueCap   int
	Watermark  int
	NumQueries int
	Probes     int
	// BucketX sets the token bucket rate as a multiple of calibrated
	// capacity; Burst is absolute. DeadlineX sets the per-query
	// modeled budget as a multiple of the calibrated mean service
	// time.
	BucketX   float64
	Burst     float64
	DeadlineX float64
	// Multipliers is the offered-load axis, as multiples of calibrated
	// capacity: below 1 the system keeps up, above 1 the queue and the
	// shedding/degradation machinery carry the story.
	Multipliers []float64
}

// DefaultStudyConfig pins the committed FIG_serving_study.csv: the
// dataset scale, admission geometry, and load axis the drift gate
// regenerates. Changing anything here changes the artifact.
func DefaultStudyConfig() StudyConfig {
	return StudyConfig{
		Dataset:     "kron-10",
		Seed:        7,
		Servers:     2,
		Threads:     8,
		Landmarks:   8,
		QueueCap:    8,
		Watermark:   4,
		NumQueries:  400,
		Probes:      32,
		BucketX:     3,
		Burst:       8,
		DeadlineX:   1.5,
		Multipliers: []float64{0.5, 0.9, 1.5, 3, 6},
	}
}

// StudyRow is one offered-load point of the serving study.
type StudyRow struct {
	Dataset    string
	Servers    int
	QueueCap   int
	Watermark  int
	Compress   string  // adjacency representation: "off" (raw CSR) or "on" (delta+varint)
	OfferedX   float64 // offered load as a multiple of capacity
	OfferedQPS float64
	BucketQPS  float64
	DeadlineUS float64
	Stats      SimStats
}

// GenerateStudy sweeps the compress axis: for each adjacency
// representation it calibrates capacity on its own bench (the decode
// cost moves service times, so capacity, bucket rate, and deadline all
// recalibrate with it) and then sweeps the offered-load multipliers
// through Simulate, so the compress=on half puts the decode-aware cost
// model under load.
func GenerateStudy(el *graph.EdgeList, cfg StudyConfig) ([]StudyRow, error) {
	var rows []StudyRow
	for _, compress := range []bool{false, true} {
		b, err := NewBench(el, cfg.Threads, cfg.Landmarks, compress)
		if err != nil {
			return nil, err
		}
		capacity := CalibrateCapacity(b, cfg.Servers, cfg.Probes, cfg.Seed)
		if capacity <= 0 {
			return nil, fmt.Errorf("server: capacity calibration produced %v", capacity)
		}
		meanService := float64(cfg.Servers) / capacity
		deadline := cfg.DeadlineX * meanService
		label := "off"
		if compress {
			label = "on"
		}

		for _, mult := range cfg.Multipliers {
			sim := SimConfig{
				Servers: cfg.Servers,
				Admit: AdmitConfig{
					QueueCap:         cfg.QueueCap,
					DegradeWatermark: cfg.Watermark,
					QPS:              cfg.BucketX * capacity,
					Burst:            cfg.Burst,
				},
				DeadlineSec: deadline,
				OfferedQPS:  mult * capacity,
				NumQueries:  cfg.NumQueries,
				Seed:        cfg.Seed,
			}
			st, err := Simulate(b, sim)
			if err != nil {
				return nil, fmt.Errorf("server: study point compress=%s x%v: %w", label, mult, err)
			}
			rows = append(rows, StudyRow{
				Dataset:    cfg.Dataset,
				Servers:    cfg.Servers,
				QueueCap:   cfg.QueueCap,
				Watermark:  cfg.Watermark,
				Compress:   label,
				OfferedX:   mult,
				OfferedQPS: mult * capacity,
				BucketQPS:  cfg.BucketX * capacity,
				DeadlineUS: deadline * 1e6,
				Stats:      st,
			})
		}
	}
	return rows, nil
}
