//go:build epg_permute

package all

import (
	"fmt"

	"github.com/hpcl-repro/epg/internal/simmachine"
)

// schedules are FuzzSpec's schedules in an epg_permute build: eight
// chunk orders (descending, ascending and six seeded permutations),
// each run on the calling goroutine with the worker ids of four
// workers, so a failure names an order that reproduces.
var schedules = func() []schedule {
	var s []schedule
	for k := range 8 {
		s = append(s, schedule{fmt.Sprintf("order=%d", k), 4, func(m *simmachine.Machine) { m.SetChunkOrder(k) }})
	}
	return s
}()
