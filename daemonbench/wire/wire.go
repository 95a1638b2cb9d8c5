// Package wire holds the JSON shapes the benchmark's binaries exchange:
// request bodies sent to the daemon, the runner's record of what the
// daemon answered, and the report the inproc binary returns.
package wire

import "encoding/json"

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Check is one named pass/fail verdict with its evidence.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Report is the last line the inproc binary prints.
type Report struct {
	Checks []Check           `json:"checks"`
	Layers map[string]Metric `json:"layers,omitempty"`
}

// Served is the runner's record of every answer, in the order the
// workload's inputs define; inproc checks it.
type Served struct {
	// Queries is how many queries of a miss workload's stream were sent.
	Queries int `json:"queries"`
	// Estimates and Learned hold, per stream query (miss) or per hot-set
	// query (hot), the answer and whether the learned stage gave it; -1
	// marks a query whose request failed.
	Estimates []float64 `json:"estimates"`
	Learned   []bool    `json:"learned"`
	// Actuals is the true cardinality sent with each hot-set query.
	Actuals []float64 `json:"actuals,omitempty"`
	// Sent lists every hot request's spelling in send order: i for hot
	// query i, Hot+i for its reordered spelling.
	Sent []int `json:"sent,omitempty"`
	// Shed and GCRemoved are the daemon's journal_shed and
	// journal_gc_removed counters; -1 when /metrics lacks them.
	Shed      int64 `json:"shed"`
	GCRemoved int64 `json:"gcRemoved"`
}

// Body encodes one POST /v1/estimate request: a single query, or a client
// batch when sql holds more than one. actual, when non-nil, gives each
// query's true cardinality.
func Body(sql []string, actual []float64) []byte {
	type item struct {
		SQL    string   `json:"sql"`
		Actual *float64 `json:"actual,omitempty"`
	}
	items := make([]item, len(sql))
	for i := range sql {
		items[i].SQL = sql[i]
		if actual != nil {
			items[i].Actual = &actual[i]
		}
	}
	var v any = items[0]
	if len(items) > 1 {
		v = map[string]any{"queries": items}
	}
	b, _ := json.Marshal(v) // strings and finite floats always encode
	return b
}
