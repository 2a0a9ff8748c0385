module github.com/hpcl-repro/epg/bench

go 1.23

require github.com/hpcl-repro/epg v0.0.0

replace github.com/hpcl-repro/epg => ../
