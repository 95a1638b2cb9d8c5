package gen

import (
	"fmt"
	"math/rand"
)

// Workload is one traffic mix: how the daemon is started and what one
// closed-loop client connection sends it.
type Workload struct {
	Name string
	// QFT is the daemon's -qft flag; Mixed selects the mixed query shape.
	QFT   string
	Mixed bool
	// Batch is the number of queries in one request.
	Batch int
	// Journal starts the daemon with -journal and sends every query's true
	// cardinality as "actual".
	Journal bool
	// Hot is the number of distinct queries the requests are drawn from
	// (Zipf); zero means every query of the run is distinct.
	Hot int
	// Window is the number of requests in one throughput window.
	Window int
	// Warmup is the number of untimed requests sent before the timed phase
	// (the whole hot set, once, when Hot is set).
	Warmup int
	// TraceRequests is how many of the workload's requests the traced
	// in-process run replays.
	TraceRequests int

	index int
}

// ZipfS is the skew of the hot-set draws.
const ZipfS = 1.1

// Workloads lists the traffic mixes; README.md says why each exists.
var Workloads = []Workload{
	{Name: "interactive-miss", QFT: "conjunctive", Batch: 1, Window: 64, Warmup: 32, TraceRequests: 256, index: 0},
	{Name: "bulk-mixed", QFT: "complex", Mixed: true, Batch: 64, Window: 32, Warmup: 4, TraceRequests: 64, index: 1},
	{Name: "hot-feedback", QFT: "conjunctive", Batch: 1, Journal: true, Hot: 512, Window: 256, TraceRequests: 2048, index: 2},
}

// Lookup returns the workload called name.
func Lookup(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// StreamSeed is the seed of the workload's query stream for benchmark seed
// seed. It never equals the daemon's own -seed 1, so the generated
// queries are not the ones the daemon trained on.
func (w Workload) StreamSeed(seed int64) int64 { return 1_000_000 + 16*seed + int64(w.index) }

// Queries returns the workload's query stream for seed.
func (w Workload) Queries(t *Table, seed int64) *Generator {
	return NewGenerator(t, w.StreamSeed(seed), w.Mixed)
}

// HotSet returns the hot workload's distinct queries. They are the same
// for every benchmark seed, which drives only the order of the draws: the
// few hottest queries take a large share of the requests, so a hot set that
// changed with the seed would change the work per request with it.
func (w Workload) HotSet(t *Table) []Query {
	g := NewGenerator(t, w.StreamSeed(0), false)
	qs := make([]Query, w.Hot)
	for i := range qs {
		qs[i] = g.Next()
	}
	return qs
}

// HotDraws returns the stream of hot-set indexes (0 is the hottest) that
// the timed phase of a hot workload requests, in order.
func (w Workload) HotDraws(seed int64) *rand.Zipf {
	return rand.NewZipf(rand.New(rand.NewSource(w.StreamSeed(seed)+8)), ZipfS, 1, uint64(w.Hot-1))
}
