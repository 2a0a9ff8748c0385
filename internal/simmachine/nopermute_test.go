//go:build !epg_permute

package simmachine

// setChunkOrder is Machine.SetChunkOrder in an epg_permute build and
// nothing outside one, where chunks have no order to set.
func setChunkOrder(*Machine, int) {}
