package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"qfe/daemonbench/gen"
	"qfe/daemonbench/stats"
	"qfe/daemonbench/wire"
	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/journal"
	"qfe/internal/replay"
	"qfe/internal/resilience"
	"qfe/internal/serve"
	"qfe/internal/sqlparse"
)

// The daemon's default serving flags (cardestd -timeout, -max-batch,
// -batch-delay, -max-inflight, -cache-entries, -seed).
const (
	daemonTimeout  = 100 * time.Millisecond
	daemonMaxBatch = 16
	daemonDelay    = 2 * time.Millisecond
	daemonInFlight = 64
	daemonCache    = 4096
	daemonSeed     = 1
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent names the layer whose work includes this one.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

type tracer struct {
	t0    time.Time
	spans []span
	durs  map[string][]float64 // microseconds, per span name
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: map[string][]float64{}}
}

// do runs f inside a span.
func (t *tracer) do(req int, name, parent string, f func()) {
	s := time.Since(t.t0)
	f()
	e := time.Since(t.t0)
	t.spans = append(t.spans, span{req, name, parent, int64(s), int64(e)})
	t.durs[name] = append(t.durs[name], float64(e-s)/1e3)
}

// medianUS is the median duration of one name's spans in microseconds.
func (t *tracer) medianUS(name string) float64 { return stats.Median(t.durs[name]) }

// meanUS is the mean duration of one name's spans in microseconds.
func (t *tracer) meanUS(name string) float64 {
	sum := 0.0
	for _, d := range t.durs[name] {
		sum += d
	}
	return sum / float64(max(len(t.durs[name]), 1))
}

// byRequest sums span durations in microseconds per request and name.
func (t *tracer) byRequest(n int) []map[string]float64 {
	out := make([]map[string]float64, n)
	for i := range out {
		out[i] = map[string]float64{}
	}
	for _, s := range t.spans {
		out[s.Req][s.Name] += float64(s.End-s.Start) / 1e3
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocsPerCall counts heap allocations over n calls of f.
func allocsPerCall(n int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := range n {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(max(n, 1))
}

// wrap is the daemon's resilience chain around the learned model.
func wrap(s *setup) func(estimator.Estimator) estimator.Estimator {
	db := s.env.DB
	return func(est estimator.Estimator) estimator.Estimator {
		return resilience.NewResilient(resilience.Config{Timeout: daemonTimeout, LastResort: resilience.RowCount{DB: db}},
			resilience.Stage{Name: "learned", Est: est},
			resilience.Stage{Name: "sampling", Est: estimator.NewSampling(db, 0.001, daemonSeed)},
			resilience.Stage{Name: "independence", Est: &estimator.Independence{DB: db}},
		)
	}
}

// newServer builds a serve.Server wired as the daemon wires one at its
// default flags, with the journal feedback path when jnl is set.
func newServer(s *setup, jnl *journal.Journal) (*serve.Server, error) {
	reg := serve.NewRegistry()
	reg.Wrap = wrap(s)
	if _, err := reg.Register("boot", s.loc, serve.ModelInfo{Kind: estimator.KindLocal, Source: "boot"}); err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Registry:       reg,
		DB:             s.env.DB,
		Batcher:        serve.BatcherConfig{MaxBatch: daemonMaxBatch, MaxDelay: daemonDelay},
		MaxInFlight:    daemonInFlight,
		DefaultTimeout: daemonTimeout,
		ModelRoot:      ".",
		Cache:          serve.CacheConfig{Entries: daemonCache},
	}
	if jnl != nil {
		actuals := replay.NewActualIndex(0)
		cfg.Feedback = func(ev serve.FeedbackEvent) {
			fp := core.Fingerprint(ev.Query)
			jnl.Append(journal.Record{
				SQL: ev.SQL, Fingerprint: fp, Model: ev.Model, Generation: ev.Generation,
				Estimate: ev.Estimate, Actual: ev.Actual, HasActual: ev.HasActual,
				LatencyMicros: ev.Latency.Microseconds(),
			})
			if ev.HasActual {
				actuals.Put(fp, ev.Actual)
			}
		}
	}
	return serve.New(cfg)
}

// request is one replayed request: its queries' SQL and the body sent.
type request struct {
	sql    []string
	actual []float64 // hot workloads only
	body   []byte
}

// requests rebuilds the workload's first n requests: the stream's queries
// in order, or the hot set's timed-phase draws.
func requests(w gen.Workload, seed int64, gt *gen.Table, qs []gen.Query, sv wire.Served, n int) []request {
	var out []request
	if w.Hot > 0 {
		z := w.HotDraws(seed)
		for range n {
			i := int(z.Uint64())
			r := request{sql: []string{qs[i].SQL(gt, false)}, actual: []float64{sv.Actuals[i]}}
			r.body = wire.Body(r.sql, r.actual)
			out = append(out, r)
		}
		return out
	}
	for k := 0; len(out) < n && (k+1)*w.Batch <= len(qs); k++ {
		var r request
		for _, q := range qs[k*w.Batch : (k+1)*w.Batch] {
			r.sql = append(r.sql, q.SQL(gt, false))
		}
		r.body = wire.Body(r.sql, nil)
		out = append(out, r)
	}
	return out
}

// instance is one in-process server, optionally behind a loopback listener.
type instance struct {
	srv  *serve.Server
	jnl  *journal.Journal
	hs   *http.Server
	url  string
	hc   *http.Client
	done chan struct{}
}

func newInstance(s *setup, w gen.Workload, dir string, listen bool) (*instance, error) {
	in := &instance{}
	if w.Journal {
		j, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return nil, err
		}
		in.jnl = j
	}
	srv, err := newServer(s, in.jnl)
	if err != nil {
		return nil, err
	}
	in.srv = srv
	if listen {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		in.hs = &http.Server{Handler: srv.Handler()}
		in.done = make(chan struct{})
		go func() {
			in.hs.Serve(ln) //nolint:errcheck // stopped by close
			close(in.done)
		}()
		in.url = "http://" + ln.Addr().String() + "/v1/estimate"
		in.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return in, nil
}

// serveHTTP sends body through the handler directly or over loopback.
func (in *instance) serveHTTP(body []byte) error {
	if in.hs == nil {
		rec := httptest.NewRecorder()
		in.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	resp, err := in.hc.Post(in.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loopback status %d", resp.StatusCode)
	}
	return nil
}

func (in *instance) close() {
	if in.hs != nil {
		in.hs.Close() //nolint:errcheck // best effort on the way out
		<-in.done
	}
	in.srv.Drain()
	in.srv.Close()
	if in.jnl != nil {
		in.jnl.Close() //nolint:errcheck // scratch journal
	}
}

func (in *instance) cacheMisses() float64 {
	v, _ := in.srv.Metrics().Snapshot()["cache_misses"].(int64)
	return float64(v)
}

// trace replays the workload's first requests through every layer, each
// call in a span, and derives each layer's time, self time and
// allocations. The layers run one after another on the same inputs, so a
// layer's self time is its mean span minus the mean spans of the layers
// its own work includes.
func trace(o options, w gen.Workload, s *setup, gt *gen.Table, qs []gen.Query, sv wire.Served) (map[string]wire.Metric, error) {
	reqs := requests(w, o.seed, gt, qs, sv, w.TraceRequests)
	if len(reqs) == 0 {
		return nil, fmt.Errorf("no requests to replay")
	}
	dir, err := os.MkdirTemp(o.work, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// One fresh server per pass, so every pass sees the cache state the
	// daemon's timed phase saw: cold for miss workloads, the hot set
	// warmed for hot ones.
	fresh := func(name string, listen bool) (*instance, error) {
		in, err := newInstance(s, w, filepath.Join(dir, name), listen)
		if err != nil {
			return nil, err
		}
		if w.Hot > 0 {
			for i, q := range qs {
				if err := in.serveHTTP(wire.Body([]string{q.SQL(gt, false)}, []float64{sv.Actuals[i]})); err != nil {
					in.close()
					return nil, err
				}
			}
		}
		return in, nil
	}

	opts := core.Options{MaxEntriesPerAttr: defaultEntries, AttrSel: true}.Normalized()
	feat, err := core.New(w.QFT, core.NewTableMeta(s.env.Table, opts.MaxEntriesPerAttr), opts)
	if err != nil {
		return nil, err
	}
	vec := make([]float64, feat.Dim())
	res := wrap(s)(s.loc).(*resilience.Resilient)
	ctx := context.Background()
	jnl, err := journal.Open(filepath.Join(dir, "layer"), journal.Options{})
	if err != nil {
		return nil, err
	}
	defer jnl.Close()

	handlerSrv, err := fresh("handler", false)
	if err != nil {
		return nil, err
	}
	defer handlerSrv.close()
	loopSrv, err := fresh("loopback", true)
	if err != nil {
		return nil, err
	}
	defer loopSrv.close()

	// Each layer runs over all the replayed queries in its own pass, so
	// every layer is timed with the same warm caches. Spans of one request
	// share its index; parse and bind each work on their own copies.
	tr := newTracer()
	var parsed, bound [][]*sqlparse.Query
	queries := 0
	for _, rq := range reqs {
		var ps, bs []*sqlparse.Query
		for _, sql := range rq.sql {
			q, err := parseBind(s, sql)
			if err != nil {
				return nil, err
			}
			pq, _ := sqlparse.Parse(sql) // parsed above
			ps, bs = append(ps, pq), append(bs, q)
		}
		parsed, bound = append(parsed, ps), append(bound, bs)
		queries += len(bs)
	}
	perQuery := func(name, parent string, f func(q *sqlparse.Query, r, i int) error) error {
		for r, qs := range bound {
			for i, q := range qs {
				var err error
				tr.do(r, name, parent, func() { err = f(q, r, i) })
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
		}
		return nil
	}
	journalParent := ""
	if w.Journal {
		journalParent = "serve.handler"
	}
	if err := firstErr(
		perQuery("sqlparse.parse", "serve.handler", func(_ *sqlparse.Query, r, i int) error {
			_, err := sqlparse.Parse(reqs[r].sql[i])
			return err
		}),
		perQuery("exec.bind", "serve.handler", func(_ *sqlparse.Query, r, i int) error {
			return exec.Bind(parsed[r][i], s.env.DB)
		}),
		perQuery("core.fingerprint", "serve.handler", func(q *sqlparse.Query, _, _ int) error {
			core.Fingerprint(q)
			return nil
		}),
		perQuery("core.featurize", "estimator.estimate", func(q *sqlparse.Query, _, _ int) error {
			return feat.FeaturizeInto(vec, q.Where)
		}),
		perQuery("estimator.estimate", "resilience.estimate", func(q *sqlparse.Query, _, _ int) error {
			_, err := s.loc.Estimate(q)
			return err
		}),
		perQuery("resilience.estimate", "serve.handler", func(q *sqlparse.Query, _, _ int) error {
			if rr := res.EstimateDetailed(ctx, q); rr.Stage != "learned" {
				return fmt.Errorf("answered by stage %q", rr.Stage)
			}
			return nil
		}),
	); err != nil {
		return nil, err
	}
	// The daemon's handler appends to its journal only when it has one;
	// the layer itself is timed on every workload, one sync per request.
	for r, rq := range reqs {
		for i, sql := range rq.sql {
			rec := journal.Record{SQL: sql}
			if w.Journal {
				rec.Actual, rec.HasActual = rq.actual[i], true
			}
			tr.do(r, "journal.append", journalParent, func() { jnl.Append(rec) })
		}
		var err error
		tr.do(r, "journal.sync", "", func() { err = jnl.Sync() })
		if err != nil {
			return nil, err
		}
	}
	for r, qs := range bound {
		tr.do(r, "estimator.batch", "", func() { s.loc.EstimateBatch(ctx, qs) })
	}
	// The handler and the loopback round trip run on separate servers,
	// request by request, in alternating order so neither pass is the
	// warmer one.
	missed := make([]int, len(reqs))
	for r, rq := range reqs {
		handler := func() error {
			before := handlerSrv.cacheMisses()
			var err error
			tr.do(r, "serve.handler", "http", func() { err = handlerSrv.serveHTTP(rq.body) })
			missed[r] = int(handlerSrv.cacheMisses() - before)
			return err
		}
		loop := func() error {
			var err error
			tr.do(r, "http", "", func() { err = loopSrv.serveHTTP(rq.body) })
			return err
		}
		first, second := handler, loop
		if r%2 == 1 {
			first, second = loop, handler
		}
		if err := firstErr(first(), second()); err != nil {
			return nil, err
		}
	}

	// serve.self per request: the handler's span minus the layers it ran.
	// Parse, bind and fingerprint run one query after another; the model
	// runs only for cache misses, spread over the batcher's workers; with a
	// journal, feedback fingerprints each query again and appends it.
	byReq := tr.byRequest(len(reqs))
	workers := float64(runtime.GOMAXPROCS(0))
	serveSelf := make([]float64, len(reqs))
	for r := range reqs {
		d := byReq[r]
		n := float64(len(bound[r]))
		serial := d["sqlparse.parse"] + d["exec.bind"] + d["core.fingerprint"]
		if w.Journal {
			serial += d["core.fingerprint"] + d["journal.append"]
		}
		model := 0.0
		if m := float64(missed[r]); m > 0 {
			model = d["resilience.estimate"] * m / n / min(workers, m)
		}
		serveSelf[r] = d["serve.handler"] - serial - model
	}
	if err := tr.write(o.tracePrefix + ".spans.jsonl"); err != nil {
		return nil, err
	}

	// Tracing overhead: the same loopback round trips twice more, each on
	// a fresh server, once with a span around each and once timed only as
	// a whole.
	roundTrips := func(spans bool) (float64, error) {
		in, err := fresh(fmt.Sprintf("overhead-%v", spans), true)
		if err != nil {
			return 0, err
		}
		defer in.close()
		scratch := newTracer()
		t := time.Now()
		for r, rq := range reqs {
			if spans {
				scratch.do(r, "http", "", func() { err = in.serveHTTP(rq.body) })
			} else {
				err = in.serveHTTP(rq.body)
			}
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t).Seconds() * 1e6 / float64(len(reqs)), nil
	}
	traced, err := roundTrips(true)
	if err != nil {
		return nil, err
	}
	untraced, err := roundTrips(false)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d requests, %d queries, %d spans; loopback round trip %.1f us with spans, %.1f us without\n",
		len(reqs), queries, len(tr.spans), traced, untraced)

	// Allocations: each layer again over the same queries, untimed.
	var flat []*sqlparse.Query
	var flatSQL []string
	for _, rq := range reqs {
		for _, sql := range rq.sql {
			q, err := parseBind(s, sql)
			if err != nil {
				return nil, err
			}
			flat, flatSQL = append(flat, q), append(flatSQL, sql)
		}
	}
	allocSrv, err := fresh("allocs", false)
	if err != nil {
		return nil, err
	}
	defer allocSrv.close()
	nq := len(flat)
	parseAllocs := allocsPerCall(nq, func(i int) { sqlparse.Parse(flatSQL[i]) }) //nolint:errcheck // parsed above
	bindAllocs := allocsPerCall(nq, func(i int) {
		q, _ := sqlparse.Parse(flatSQL[i])
		exec.Bind(q, s.env.DB) //nolint:errcheck // bound above
	}) - parseAllocs
	fpAllocs := allocsPerCall(nq, func(i int) { core.Fingerprint(flat[i]) })
	featAllocs := allocsPerCall(nq, func(i int) { feat.FeaturizeInto(vec, flat[i].Where) })     //nolint:errcheck // featurized above
	estAllocs := allocsPerCall(nq, func(i int) { s.loc.Estimate(flat[i]) })                     //nolint:errcheck // estimated above
	handlerAllocs := allocsPerCall(len(reqs), func(i int) { allocSrv.serveHTTP(reqs[i].body) }) //nolint:errcheck // served above

	js := jnl.Stats()
	batchUS := tr.meanUS("estimator.batch") * float64(len(reqs)) / float64(max(queries, 1))
	m := map[string]wire.Metric{
		"sqlparse.parse_us":            {Value: tr.medianUS("sqlparse.parse"), Unit: "us"},
		"sqlparse.parse_allocs":        {Value: parseAllocs, Unit: "allocs"},
		"exec.bind_us":                 {Value: tr.medianUS("exec.bind"), Unit: "us"},
		"exec.bind_allocs":             {Value: bindAllocs, Unit: "allocs"},
		"core.fingerprint_us":          {Value: tr.medianUS("core.fingerprint"), Unit: "us"},
		"core.fingerprint_allocs":      {Value: fpAllocs, Unit: "allocs"},
		"core.featurize_us":            {Value: tr.medianUS("core.featurize"), Unit: "us"},
		"core.featurize_allocs":        {Value: featAllocs, Unit: "allocs"},
		"estimator.estimate_us":        {Value: tr.medianUS("estimator.estimate"), Unit: "us"},
		"estimator.estimate_allocs":    {Value: estAllocs, Unit: "allocs"},
		"estimator.predict_us":         {Value: tr.medianUS("estimator.estimate") - tr.medianUS("core.featurize"), Unit: "us"},
		"estimator.batch_us_per_query": {Value: batchUS, Unit: "us"},
		"resilience.estimate_us":       {Value: tr.medianUS("resilience.estimate"), Unit: "us"},
		"resilience.self_us":           {Value: tr.medianUS("resilience.estimate") - tr.medianUS("estimator.estimate"), Unit: "us"},
		"serve.handler_us":             {Value: tr.medianUS("serve.handler"), Unit: "us"},
		"serve.handler_allocs":         {Value: handlerAllocs, Unit: "allocs"},
		"serve.self_us":                {Value: stats.Median(serveSelf), Unit: "us"},
		"http.self_us":                 {Value: tr.medianUS("http") - tr.medianUS("serve.handler"), Unit: "us"},
		"journal.append_us":            {Value: tr.medianUS("journal.append"), Unit: "us"},
		"journal.sync_us":              {Value: tr.medianUS("journal.sync"), Unit: "us"},
		"journal.records_per_flush":    {Value: float64(js.Persisted) / float64(max(js.Flushes, 1)), Unit: "records"},
		"journal.shed":                 {Value: float64(js.Shed), Unit: "records"},
		"setup.dataset_s":              {Value: s.datasetS, Unit: "s"},
		"setup.label_s":                {Value: s.labelS, Unit: "s"},
		"setup.train_s":                {Value: s.train, Unit: "s"},
	}
	return m, nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
