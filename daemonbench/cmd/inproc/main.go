// Command inproc runs the benchmark's checks and measurements that need
// the program's own layers, in this process: it trains the daemon's model
// with the daemon's data and training spec, checks the answers the runner
// recorded against it, reads the daemon's feedback journal back, and, with
// -trace, replays the workload's first requests through each layer's public
// function inside spans. It prints one JSON object as its last line:
//
//	{"checks": [{"name": ..., "ok": ..., "detail": ...}], "layers": {...}}
//
// The runner runs it after stopping the daemon; see run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"qfe/daemonbench/gen"
	"qfe/daemonbench/wire"
	"qfe/internal/cli"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/journal"
	"qfe/internal/sqlparse"
)

// The daemon's default training spec (cardestd -train, -model, -entries).
const (
	defaultTrain   = 2_000
	defaultModel   = "GB"
	defaultEntries = 32
)

type options struct {
	workload, servedPath, journalDir, tracePrefix, work string
	seed                                                int64
	rows, train                                         int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.StringVar(&o.servedPath, "served", "", "the runner's record of served answers")
	flag.StringVar(&o.journalDir, "journal", "", "the daemon's journal directory, read back after it drained")
	flag.StringVar(&o.tracePrefix, "trace", "", "replay the workload through each layer and write spans to PREFIX.spans.jsonl")
	flag.StringVar(&o.work, "work", os.TempDir(), "scratch directory for the traced run's journals")
	flag.IntVar(&o.rows, "rows", 0, "daemon -rows (0: its default)")
	flag.IntVar(&o.train, "train", 0, "daemon -train (0: its default)")
	flag.Parse()
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inproc:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inproc:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setup is the daemon's boot work redone in process, with its timings.
type setup struct {
	env                     *cli.ForestEnv
	loc                     *estimator.Local
	datasetS, labelS, train float64
}

func boot(w gen.Workload, rows, trainN int) (*setup, error) {
	fcfg := gen.Forest
	if rows > 0 {
		fcfg.Rows = rows
	}
	if trainN <= 0 {
		trainN = defaultTrain
	}
	s := &setup{}
	t := time.Now()
	if _, err := dataset.Forest(fcfg); err != nil {
		return nil, err
	}
	s.datasetS = time.Since(t).Seconds()
	// cli.BuildForestEnv makes the same table and then generates and
	// labels the training workload; labelling is the difference.
	t = time.Now()
	env, err := cli.BuildForestEnv(cli.ForestSpec{Rows: fcfg.Rows, TrainN: trainN, Seed: fcfg.Seed, QFT: w.QFT})
	if err != nil {
		return nil, err
	}
	s.labelS = max(time.Since(t).Seconds()-s.datasetS, 0)
	loc, err := cli.NewLocalEstimator(env.DB, cli.TrainSpec{QFT: w.QFT, Model: defaultModel, Entries: defaultEntries})
	if err != nil {
		return nil, err
	}
	t = time.Now()
	if err := loc.Train(env.Train); err != nil {
		return nil, err
	}
	s.train = time.Since(t).Seconds()
	s.env, s.loc = env, loc
	return s, nil
}

func run(o options) (wire.Report, error) {
	var rep wire.Report
	w, err := gen.Lookup(o.workload)
	if err != nil {
		return rep, err
	}
	var sv wire.Served
	b, err := os.ReadFile(o.servedPath)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &sv); err != nil {
		return rep, fmt.Errorf("read %s: %w", o.servedPath, err)
	}
	s, err := boot(w, o.rows, o.train)
	if err != nil {
		return rep, err
	}
	gt := gen.FromTable(s.env.Table)
	add := func(name string, ok bool, format string, args ...any) {
		rep.Checks = append(rep.Checks, wire.Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	// The benchmark builds its own copy of the table; it must be the one
	// the daemon builds.
	fcfg := gen.Forest
	if o.rows > 0 {
		fcfg.Rows = o.rows
	}
	mine, err := gen.NewTable(fcfg)
	if err != nil {
		return rep, err
	}
	add("table-matches-daemon", sameTable(mine, gt), "%d rows x %d columns compared", gt.Rows, len(gt.Cols))

	// The queries the daemon answered, regenerated from the seed.
	var qs []gen.Query
	if w.Hot > 0 {
		qs = w.HotSet(gt)
	} else {
		stream := w.Queries(gt, o.seed)
		for range sv.Queries {
			qs = append(qs, stream.Next())
		}
	}
	n := len(qs)
	if len(sv.Estimates) != n || len(sv.Learned) != n {
		return rep, fmt.Errorf("served record holds %d answers for %d queries", len(sv.Estimates), n)
	}

	// Serving must not change the learned stage's answer. The comparison
	// is split across the CPUs; each worker owns every nw-th query.
	nw := runtime.GOMAXPROCS(0)
	compared := make([]int, nw)
	differ := make([]int, nw)
	firstBad := make([]int, nw)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for k := range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			firstBad[k] = -1
			for i := k; i < len(qs); i += nw {
				if !sv.Learned[i] {
					continue
				}
				pq, err := parseBind(s, qs[i].SQL(gt, false))
				if err != nil {
					errs[k] = err
					return
				}
				v, err := s.loc.Estimate(pq)
				if err != nil {
					errs[k] = err
					return
				}
				compared[k]++
				if math.Float64bits(v) != math.Float64bits(sv.Estimates[i]) {
					differ[k]++
					if firstBad[k] < 0 {
						firstBad[k] = i
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return rep, err
	}
	first, nCompared, nDiffer := "", 0, 0
	for k := range nw {
		nCompared += compared[k]
		nDiffer += differ[k]
		if i := firstBad[k]; i >= 0 && first == "" {
			first = fmt.Sprintf("; e.g. query %d served %v: %s", i, sv.Estimates[i], qs[i].SQL(gt, false))
		}
	}
	add("learned-bit-identical", nCompared > 0 && nDiffer == 0,
		"%d of %d learned-stage answers differ from Local.Estimate%s", nDiffer, nCompared, first)

	if o.journalDir != "" {
		rep.Checks = append(rep.Checks, checkJournal(o.journalDir, sv, qs, gt))
	}
	if o.tracePrefix != "" {
		layers, err := trace(o, w, s, gt, qs, sv)
		if err != nil {
			return rep, fmt.Errorf("trace: %w", err)
		}
		rep.Layers = layers
	}
	return rep, nil
}

func parseBind(s *setup, sql string) (*sqlparse.Query, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return q, exec.Bind(q, s.env.DB)
}

func sameTable(a, b *gen.Table) bool {
	if a.Rows != b.Rows || len(a.Cols) != len(b.Cols) {
		return false
	}
	for c := range a.Cols {
		if a.Names[c] != b.Names[c] {
			return false
		}
		for r, v := range a.Cols[c] {
			if b.Cols[c][r] != v {
				return false
			}
		}
	}
	return true
}

// checkJournal reads the drained daemon's journal back: one record per
// served estimate that was not shed, in send order, each carrying the
// actual that was sent.
func checkJournal(dir string, sv wire.Served, hot []gen.Query, gt *gen.Table) wire.Check {
	const name = "journal-readback"
	recs, rr, err := journal.Read(nil, dir)
	if err != nil {
		return wire.Check{Name: name, Detail: fmt.Sprintf("read %s: %v", dir, err)}
	}
	spelling := func(sent int) string {
		return hot[sent%len(hot)].SQL(gt, sent >= len(hot))
	}
	want := len(sv.Sent) - int(max(sv.Shed, 0))
	// Retention GC may remove whole sealed segments; then only the newest
	// records remain and the count can only be bounded.
	countOK := len(recs) == want || (sv.GCRemoved > 0 && len(recs) <= want)
	// Records must be the sent sequence with shed (or collected) ones left
	// out: a subsequence, in order, each with its query's actual.
	j, bad := 0, 0
	for _, r := range recs {
		for j < len(sv.Sent) && spelling(sv.Sent[j]) != r.SQL {
			j++
		}
		if j == len(sv.Sent) || !r.HasActual || r.Actual != sv.Actuals[sv.Sent[j]%len(hot)] {
			bad++
			break
		}
		j++
	}
	return wire.Check{Name: name, OK: countOK && bad == 0, Detail: fmt.Sprintf(
		"%d records (%d segments, %d torn) for %d served, %d shed, %d gc-removed; %d not in send order or without the sent actual",
		len(recs), rr.Segments, rr.TornTails, len(sv.Sent), sv.Shed, sv.GCRemoved, bad)}
}
