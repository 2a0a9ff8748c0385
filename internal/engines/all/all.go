// Package all lists the five engines' declarations as one registry.
// It exists apart from package engines so the interface package does
// not depend on its implementations.
package all

import (
	"github.com/hpcl-repro/epg/internal/engines"
	"github.com/hpcl-repro/epg/internal/engines/gap"
	"github.com/hpcl-repro/epg/internal/engines/graph500"
	"github.com/hpcl-repro/epg/internal/engines/graphbig"
	"github.com/hpcl-repro/epg/internal/engines/graphmat"
	"github.com/hpcl-repro/epg/internal/engines/powergraph"
)

// Names of the five systems, in the paper's presentation order.
const (
	Graph500   = "Graph500"
	GAP        = "GAP"
	GraphBIG   = "GraphBIG"
	GraphMat   = "GraphMat"
	PowerGraph = "PowerGraph"
)

// Names lists every engine in presentation order.
var Names = Registry().Names()

// Registry returns the five engines' declarations, in presentation
// order.
func Registry() engines.Registry {
	return engines.Registry{&graph500.Decl, &gap.Decl, &graphbig.Decl, &graphmat.Decl, &powergraph.Decl}
}

// New returns the named engine with no knobs requested.
func New(name string) (*engines.Engine, error) {
	d, err := Registry().Decl(name)
	if err != nil {
		return nil, err
	}
	return &engines.Engine{Decl: d}, nil
}
