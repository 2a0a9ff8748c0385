//go:build !epg_permute

package simmachine

// chunkOrder is empty outside an epg_permute build (permute.go): chunks
// run in index order on one real worker and on the pool otherwise.
type chunkOrder struct{}

func (chunkOrder) next(*Machine, int) []int { return nil }
