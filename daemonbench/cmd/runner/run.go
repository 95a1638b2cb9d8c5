package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"qfe/daemonbench/gen"
	"qfe/daemonbench/stats"
	"qfe/daemonbench/wire"
	"qfe/internal/dataset"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

const (
	// labelSample is how many served queries (the first ones of a miss
	// workload) are labeled exactly for the q-error metrics.
	labelSample = 4096
	// oracleEvery picks the labeled queries the row-scan oracle recounts.
	oracleEvery = 8
	// respellEvery picks the hot queries re-sent with reordered operands.
	respellEvery = 8
	// The daemon's default canary ceilings on median and p95 q-error.
	maxQErrP50, maxQErrP95 = 10, 100
)

// phase is what the client saw: per-request timings and every answer.
type phase struct {
	spans     []stats.Span
	latencyUS []float64
	attempted int
	failed    int
	respBytes int64
	answers   int
	learned   int
	badEst    int // answers that were not finite or below 1
	cpuTicks  int64
	measured  time.Duration
}

type reply struct {
	Estimate float64 `json:"estimate"`
	Stage    string  `json:"stage"`
	Error    string  `json:"error"`
	Results  []reply `json:"results"`
}

// client is one keep-alive connection to the daemon.
type client struct {
	hc  *http.Client
	url string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}, Timeout: time.Minute},
		url: base + "/v1/estimate",
	}
}

// post sends one request and returns its answers (want of them) and the
// response size. An error means the request failed.
func (c *client) post(body []byte, want int) ([]reply, int, error) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(b), fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var r reply
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, len(b), fmt.Errorf("decode reply: %w", err)
	}
	rs := r.Results
	if want == 1 && rs == nil {
		rs = []reply{r}
	}
	if len(rs) != want {
		return nil, len(b), fmt.Errorf("%d answers, want %d", len(rs), want)
	}
	for _, x := range rs {
		if x.Error != "" {
			return nil, len(b), fmt.Errorf("answer error: %s", x.Error)
		}
	}
	return rs, len(b), nil
}

func run(o options, out io.Writer) (result, error) {
	w, err := gen.Lookup(o.workload)
	if err != nil {
		return result{}, err
	}
	for _, name := range []string{"cardestd"} {
		if _, err := os.Stat(filepath.Join(o.bin, name)); err != nil {
			return result{}, fmt.Errorf("missing binary: %w", err)
		}
	}
	work, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	traceDir := filepath.Join(o.root, ".bench_build", "trace")
	if o.trace {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return result{}, err
		}
	}

	// clock reports where a run's wall time goes, phase by phase.
	var took []string
	mark := time.Now()
	clock := func(name string) {
		took = append(took, fmt.Sprintf("%s %.1fs", name, time.Since(mark).Seconds()))
		mark = time.Now()
	}
	defer func() { fmt.Fprintf(out, "run time: %s\n", strings.Join(took, ", ")) }()

	fcfg := gen.Forest
	if o.rows > 0 {
		fcfg.Rows = o.rows
	}
	ftab, err := dataset.Forest(fcfg)
	if err != nil {
		return result{}, err
	}
	gt := gen.FromTable(ftab)
	db := table.NewDB()
	db.MustAdd(ftab)

	// Inputs. A miss workload streams distinct queries; a hot workload
	// draws from a fixed hot set whose true cardinalities ride along.
	stream := w.Queries(gt, o.seed)
	var hot []gen.Query
	var hotActual []float64
	var hotBody, respellBody [][]byte
	if w.Hot > 0 {
		hot = w.HotSet(gt)
		if hotActual, err = label(db, gt, hot); err != nil {
			return result{}, err
		}
		for i, q := range hot {
			a := hotActual[i]
			hotBody = append(hotBody, wire.Body([]string{q.SQL(gt, false)}, []float64{a}))
			respellBody = append(respellBody, wire.Body([]string{q.SQL(gt, true)}, []float64{a}))
		}
	}

	args := []string{}
	if w.QFT != "conjunctive" {
		args = append(args, "-qft", w.QFT)
	}
	if o.rows > 0 {
		args = append(args, "-rows", strconv.Itoa(o.rows))
	}
	if o.train > 0 {
		args = append(args, "-train", strconv.Itoa(o.train))
	}
	pprofAddr := ""
	if o.trace && (w.Mixed || w.Journal) {
		port, err := freePort()
		if err != nil {
			return result{}, err
		}
		pprofAddr = fmt.Sprintf("127.0.0.1:%d", port)
		args = append(args, "-pprof", pprofAddr)
	}

	clock("inputs")
	// Set-up: start the daemon several times and keep the last one.
	setups := o.setups
	if o.trace || setups < 1 {
		setups = 1
	}
	var d *daemon
	var setupS []float64
	journalDir := ""
	for i := range setups {
		a := args
		if w.Journal {
			journalDir = filepath.Join(work, fmt.Sprintf("journal-%d", i))
			a = append(slices.Clone(args), "-journal", journalDir)
		}
		dd, boot, err := startDaemon(filepath.Join(o.bin, "cardestd"), work,
			filepath.Join(work, fmt.Sprintf("daemon-%d.log", i)), a)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, boot.Seconds())
		if i < setups-1 {
			if err := dd.stop(); err != nil {
				return result{}, fmt.Errorf("stop set-up daemon: %w", err)
			}
			continue
		}
		d = dd
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	pid := d.cmd.Process.Pid
	cl := newClient(d.base)

	// What the client records for the inproc checks.
	sv := wire.Served{Shed: -1, GCRemoved: -1}
	var firstQueries []gen.Query // the labeled prefix of a miss stream
	hotEst := make([]float64, len(hot))
	hotSeen := make([]bool, len(hot))
	hotMismatch := 0
	timedDraws := make([]int, len(hot)) // timed-phase requests per hot query
	p := &phase{}

	// record folds one request's answers into p and sv. idx is the hot
	// query asked, or -1 for stream queries.
	record := func(rs []reply, idx int) {
		for _, r := range rs {
			p.answers++
			if r.Stage == "learned" {
				p.learned++
			}
			if math.IsNaN(r.Estimate) || math.IsInf(r.Estimate, 0) || r.Estimate < 1 {
				p.badEst++
			}
			if idx < 0 {
				sv.Estimates = append(sv.Estimates, r.Estimate)
				sv.Learned = append(sv.Learned, r.Stage == "learned")
				continue
			}
			if !hotSeen[idx] {
				hotSeen[idx], hotEst[idx] = true, r.Estimate
				sv.Learned[idx] = r.Stage == "learned"
			} else if math.Float64bits(hotEst[idx]) != math.Float64bits(r.Estimate) {
				hotMismatch++
			}
		}
	}
	// next builds the next request of a miss workload.
	next := func() []byte {
		sql := make([]string, w.Batch)
		for i := range sql {
			q := stream.Next()
			if len(firstQueries) < labelSample {
				firstQueries = append(firstQueries, q)
			}
			sql[i] = q.SQL(gt, false)
		}
		sv.Queries += w.Batch
		return wire.Body(sql, nil)
	}
	if w.Hot > 0 {
		sv.Learned = make([]bool, len(hot))
		sv.Actuals = hotActual
	}

	clock("set-up")
	// Untimed warm-up: the whole hot set once, or a few stream requests.
	if w.Hot > 0 {
		for i, b := range hotBody {
			rs, _, err := cl.post(b, 1)
			if err != nil {
				return result{}, fmt.Errorf("warm-up: %w", err)
			}
			record(rs, i)
			sv.Sent = append(sv.Sent, i)
		}
	} else {
		for range w.Warmup {
			rs, _, err := cl.post(next(), w.Batch)
			if err != nil {
				return result{}, fmt.Errorf("warm-up: %w", err)
			}
			record(rs, -1)
		}
	}
	learnedWarm, answersWarm := p.learned, p.answers

	// Timed phase: windows of w.Window requests until --seconds of
	// measured time. Inputs for a window are built before its clock starts.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	profErr := make(chan error, 1)
	if pprofAddr != "" {
		secs := max(1, min(o.seconds-1, 5))
		go func() {
			profErr <- profile(ctx, pprofAddr, secs, filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.cpu.pprof", w.Name, o.seed)))
		}()
	}
	zipf := w.HotDraws(o.seed)
	tot0, steal0, err := hostCPU()
	if err != nil {
		return result{}, err
	}
	t0 := time.Now()
	limit := time.Duration(o.seconds) * time.Second
	bodies := make([][]byte, w.Window)
	idxs := make([]int, w.Window)
	for p.measured < limit {
		for i := range bodies {
			if w.Hot > 0 {
				idxs[i] = int(zipf.Uint64())
				bodies[i] = hotBody[idxs[i]]
			} else {
				idxs[i], bodies[i] = -1, next()
			}
		}
		c0, err := cpuTicks(pid)
		if err != nil {
			return result{}, err
		}
		ws := time.Now()
		for i, b := range bodies {
			s := time.Since(t0)
			rs, n, err := cl.post(b, w.Batch)
			e := time.Since(t0)
			p.attempted++
			if err != nil {
				p.failed++
				fmt.Fprintf(out, "request failed: %v\n", err)
				p.spans = append(p.spans, stats.Span{Start: s, End: e})
				if w.Hot == 0 {
					// Keep the stream aligned: -1 marks an unanswered query.
					for range w.Batch {
						sv.Estimates = append(sv.Estimates, -1)
						sv.Learned = append(sv.Learned, false)
					}
				}
				continue
			}
			p.spans = append(p.spans, stats.Span{Start: s, End: e, Queries: len(rs)})
			p.latencyUS = append(p.latencyUS, float64(e-s)/float64(time.Microsecond))
			p.respBytes += int64(n)
			record(rs, idxs[i])
			if w.Hot > 0 {
				sv.Sent = append(sv.Sent, idxs[i])
				timedDraws[idxs[i]]++
			}
		}
		p.measured += time.Since(ws)
		c1, err := cpuTicks(pid)
		if err != nil {
			return result{}, err
		}
		p.cpuTicks += c1 - c0
	}
	tot1, steal1, err := hostCPU()
	if err != nil {
		return result{}, err
	}
	timedAnswers := p.answers - answersWarm
	rssKiB, err := peakRSS(pid)
	if err != nil {
		return result{}, err
	}

	clock("phase")
	ck := &checks{out: out}
	// Re-spelled hot queries: same predicates, AND operands reversed.
	if w.Hot > 0 {
		same, asked := 0, 0
		for i := 0; i < len(hot); i += respellEvery {
			rs, _, err := cl.post(respellBody[i], 1)
			if err != nil {
				return result{}, fmt.Errorf("re-spelled query %d: %w", i, err)
			}
			asked++
			sv.Sent = append(sv.Sent, len(hot)+i)
			if math.Float64bits(rs[0].Estimate) == math.Float64bits(hotEst[i]) {
				same++
			}
		}
		ck.check("respelled-same-estimate", same == asked, "%d/%d reordered spellings answered identically", same, asked)
		ck.check("hot-answers-stable", hotMismatch == 0, "%d repeated hot queries answered differently", hotMismatch)
	}

	m, err := d.metrics()
	if err != nil {
		return result{}, err
	}
	num := func(key string) (float64, bool) {
		v, ok := m[key].(float64)
		return v, ok
	}
	if v, ok := num("journal_shed"); ok {
		sv.Shed = int64(v)
	}
	if v, ok := num("journal_gc_removed"); ok {
		sv.GCRemoved = int64(v)
	}
	if w.Hot == 0 {
		if hits, ok := num("cache_hits"); ok {
			ck.check("zero-cache-hits", hits == 0, "cache_hits=%v on distinct queries", hits)
		} else {
			fmt.Fprintln(out, "note: /metrics has no cache_hits; zero-cache-hits not checked")
		}
	}
	if pprofAddr != "" {
		if err := <-profErr; err != nil {
			fmt.Fprintf(out, "note: cpu profile not saved: %v\n", err)
		}
	}
	if err := d.stop(); err != nil {
		return result{}, fmt.Errorf("daemon drain: %w", err)
	}
	stopped = true

	ck.check("estimates-finite-ge-1", p.badEst == 0, "%d of %d answers not finite or below 1", p.badEst, p.answers)

	clock("drain")
	// Exact cardinalities for q-error, and the row-scan oracle on a sample.
	sample, ests := firstQueries, sv.Estimates
	if w.Hot > 0 {
		sample, ests = hot, hotEst
	}
	exact := hotActual
	if w.Hot == 0 {
		if exact, err = label(db, gt, sample); err != nil {
			return result{}, err
		}
	}
	agree, recount := 0, 0
	for i := 0; i < len(sample); i += oracleEvery {
		recount++
		if gen.Count(gt, sample[i]) == int64(exact[i]) {
			agree++
		}
	}
	ck.check("oracle-agrees-with-labels", agree == recount, "%d/%d row-scan recounts equal the exact labels", agree, recount)
	// Every served answer counts once: each miss query, and each timed
	// request of a hot workload.
	var qerr []float64
	for i := range sample {
		if ests[i] <= 0 {
			continue
		}
		q, n := max(ests[i]/exact[i], exact[i]/ests[i]), 1
		if w.Hot > 0 {
			n = timedDraws[i]
		}
		for range n {
			qerr = append(qerr, q)
		}
	}
	q50, q95 := stats.Percentile(qerr, 0.5), stats.Percentile(qerr, 0.95)
	ck.check("qerror-under-canary", q50 < maxQErrP50 && q95 < maxQErrP95,
		"median %.3f (ceiling %d), p95 %.3f (ceiling %d) over %d queries", q50, maxQErrP50, q95, maxQErrP95, len(qerr))

	clock("labels")
	// Checks that need the program's layers run in the inproc binary.
	if w.Hot > 0 {
		sv.Estimates = hotEst
	}
	servedPath := filepath.Join(work, "served.json")
	if err := writeJSON(servedPath, sv); err != nil {
		return result{}, err
	}
	inArgs := []string{"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10), "-served", servedPath}
	if o.rows > 0 {
		inArgs = append(inArgs, "-rows", strconv.Itoa(o.rows))
	}
	if o.train > 0 {
		inArgs = append(inArgs, "-train", strconv.Itoa(o.train))
	}
	if w.Journal {
		inArgs = append(inArgs, "-journal", journalDir)
	}
	if o.trace {
		inArgs = append(inArgs, "-trace", filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.Name, o.seed)), "-work", work)
	}
	in, err := runInproc(filepath.Join(o.bin, "inproc"), o.root, inArgs, out)
	if err != nil {
		ck.check("inproc", false, "%v", err)
	}
	for _, c := range in.Checks {
		ck.check(c.Name, c.OK, "%s", c.Detail)
	}

	clock("inproc")
	env := envLine(o.root, d.args, tot1-tot0, steal1-steal0)
	fmt.Fprintln(out, env)
	rates := stats.WindowRates(p.spans, w.Window)
	qps := stats.Median(rates)
	e2e := map[string]wire.Metric{
		"setup_s":          {Value: stats.Median(setupS), Unit: "s"},
		"throughput_qps":   {Value: qps, Unit: "queries/s"},
		"latency_p50_us":   {Value: stats.WindowPercentile(p.spans, w.Window, 0.50), Unit: "us"},
		"cpu_us_per_query": {Value: float64(p.cpuTicks) * 1e6 / ticksPerSecond / float64(max(1, timedAnswers)), Unit: "us"},
		"rss_peak_mb":      {Value: float64(rssKiB) / 1024, Unit: "MiB"},
		"qerror_p50":       {Value: q50, Unit: "ratio"},
		"qerror_p95":       {Value: q95, Unit: "ratio"},
	}
	fmt.Fprintf(out, "workload %s seed %d: %d requests (%d queries) in %.2fs measured, %d windows of %d\n",
		w.Name, o.seed, p.attempted, timedAnswers, p.measured.Seconds(), len(p.spans)/max(1, w.Window), w.Window)
	fmt.Fprintf(out, "window rates (queries/s): min %.0f q1 %.0f median %.0f q3 %.0f max %.0f\n",
		stats.Percentile(rates, 0), stats.Percentile(rates, 0.25), qps, stats.Percentile(rates, 0.75), stats.Percentile(rates, 1))
	printMetrics(out, e2e)
	// p90 and p99 move with the host's CPU steal more than any useful bound
	// allows, so they are printed for reference only.
	fmt.Fprintf(out, "%-32s %14.4f us (median over windows; reference only, no bound)\n", "latency_p90_us", stats.WindowPercentile(p.spans, w.Window, 0.90))
	fmt.Fprintf(out, "%-32s %14.4f us (over all requests; reference only, no bound)\n", "latency_p99_us", stats.Percentile(p.latencyUS, 0.99))

	res := result{Correct: len(ck.failed) == 0, Attempted: p.attempted, Failed: p.failed, Metrics: e2e}
	if o.trace {
		layers := map[string]wire.Metric{}
		for k, v := range in.Layers {
			layers[k] = v
		}
		answers := float64(p.answers - answersWarm)
		layers["resilience.learned_share"] = wire.Metric{Value: float64(p.learned-learnedWarm) / max(1, answers), Unit: "ratio"}
		layers["serve.response_bytes_per_query"] = wire.Metric{Value: float64(p.respBytes) / max(1, answers), Unit: "bytes"}
		hits, okH := num("cache_hits")
		miss, okM := num("cache_misses")
		if okH && okM && hits+miss > 0 {
			layers["serve.cache_hit_ratio"] = wire.Metric{Value: hits / (hits + miss), Unit: "ratio"}
		}
		bq, okQ := num("batched_queries_total")
		bn, okN := num("batches_total")
		if okQ && okN && bn > 0 {
			layers["serve.batch_size_mean"] = wire.Metric{Value: bq / bn, Unit: "queries"}
		}
		// With the daemon's journal on, its own counters replace the ones
		// of the in-process journal the traced run drives.
		jp, okP := num("journal_persisted")
		jf, okF := num("journal_flushes")
		if okP && okF && jf > 0 {
			layers["journal.records_per_flush"] = wire.Metric{Value: jp / jf, Unit: "records"}
		}
		if sv.Shed >= 0 {
			layers["journal.shed"] = wire.Metric{Value: float64(sv.Shed), Unit: "records"}
		}
		fmt.Fprintln(out, "per-layer (traced run):")
		printMetrics(out, layers)
		res.Metrics = layers
	}
	if len(ck.failed) > 0 {
		fmt.Fprintf(out, "FAILED checks: %s\n", strings.Join(ck.failed, ", "))
	}
	return res, nil
}

func printMetrics(out io.Writer, ms map[string]wire.Metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-32s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// label returns the exact cardinality of each query, counted by the
// program's executor over the same table the daemon serves.
func label(db *table.DB, t *gen.Table, qs []gen.Query) ([]float64, error) {
	parsed := make([]*sqlparse.Query, len(qs))
	for i, q := range qs {
		pq, err := sqlparse.Parse(q.SQL(t, false))
		if err != nil {
			return nil, fmt.Errorf("label: %w", err)
		}
		parsed[i] = pq
	}
	set, err := workload.LabelMany(context.Background(), db, parsed)
	if err != nil {
		return nil, fmt.Errorf("label: %w", err)
	}
	if len(set) != len(qs) {
		return nil, fmt.Errorf("label: %d of %d generated queries are empty", len(qs)-len(set), len(qs))
	}
	out := make([]float64, len(set))
	for i, l := range set {
		out[i] = float64(l.Card)
	}
	return out, nil
}

func runInproc(bin, dir string, args []string, out io.Writer) (wire.Report, error) {
	var rep wire.Report
	if _, err := os.Stat(bin); err != nil {
		return rep, fmt.Errorf("inproc binary missing (did it fail to build?): %w", err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("inproc: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, fmt.Errorf("inproc output: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(out, l)
	}
	return rep, nil
}

// envLine describes the host and build a run measured, so a run spoiled by
// the host can be recognised.
func envLine(root string, argv []string, total, steal int64) string {
	commit := "none"
	if b, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	stealPct := 0.0
	if total > 0 {
		stealPct = 100 * float64(steal) / float64(total)
	}
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d go=%s commit=%s src=%s steal=%.2f%% argv=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceHash(root), stealPct,
		strings.Join(append([]string{"cardestd"}, argv...), " "))
}

// sourceHash digests the daemon's Go sources, which names the code under
// test when the checkout is not a git repository.
func sourceHash(root string) string {
	h := sha256.New()
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, de fs.DirEntry, err error) error { //nolint:errcheck // best effort
			if err != nil || de.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", path[len(root):], len(b))
				h.Write(b)
			}
			return nil
		})
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}
