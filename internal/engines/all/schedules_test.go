//go:build !epg_permute

package all

// schedules are FuzzSpec's schedules in a product build: one real
// worker, which runs every region in index order on the calling
// goroutine, and four, whose chunks the pool interleaves.
var schedules = []schedule{workers(1), workers(4)}
