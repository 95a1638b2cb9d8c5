package gen

import (
	"testing"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

func smallForest(t *testing.T) (*table.DB, *Table) {
	t.Helper()
	ft, err := dataset.Forest(dataset.ForestConfig{Rows: 500, QuantAttrs: 12, BinaryAttrs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(ft)
	return db, FromTable(ft)
}

// The row-scan oracle must agree with the program's executor on every
// query shape the workloads send.
func TestCountMatchesExecutor(t *testing.T) {
	db, gt := smallForest(t)
	for _, mixed := range []bool{false, true} {
		g := NewGenerator(gt, 11, mixed)
		for i := 0; i < 200; i++ {
			q := g.Next()
			pq, err := sqlparse.Parse(q.SQL(gt, false))
			if err != nil {
				t.Fatal(err)
			}
			want, err := exec.Count(db, pq)
			if err != nil {
				t.Fatal(err)
			}
			if got := Count(gt, q); got != want || got == 0 {
				t.Fatalf("mixed=%v query %d: oracle %d, executor %d: %s", mixed, i, got, want, q.SQL(gt, false))
			}
		}
	}
}

// A stream never repeats a fingerprint, so a miss workload never hits the
// daemon's cache; a reordered spelling keeps its query's fingerprint.
func TestStreamFingerprintsDistinct(t *testing.T) {
	_, gt := smallForest(t)
	for _, mixed := range []bool{false, true} {
		g := NewGenerator(gt, 5, mixed)
		seen := map[string]int{}
		for i := 0; i < 2000; i++ {
			q := g.Next()
			pq, err := sqlparse.Parse(q.SQL(gt, false))
			if err != nil {
				t.Fatal(err)
			}
			fp := core.Fingerprint(pq)
			if j, dup := seen[fp]; dup {
				t.Fatalf("mixed=%v: queries %d and %d share a fingerprint", mixed, j, i)
			}
			seen[fp] = i
			rq, err := sqlparse.Parse(q.SQL(gt, true))
			if err != nil {
				t.Fatal(err)
			}
			if core.Fingerprint(rq) != fp {
				t.Fatalf("reordered spelling changes the fingerprint: %s", q.SQL(gt, true))
			}
		}
	}
}

// The same seed gives the same inputs; the forest's values fit the
// dedupe key's packing.
func TestStreamDeterministic(t *testing.T) {
	_, gt := smallForest(t)
	for _, col := range gt.Cols {
		for _, v := range col {
			if v < 0 || v >= 1<<48 {
				t.Fatalf("column value %d outside the key's range", v)
			}
		}
	}
	a, b := NewGenerator(gt, 9, true), NewGenerator(gt, 9, true)
	for i := 0; i < 100; i++ {
		if sa, sb := a.Next().SQL(gt, false), b.Next().SQL(gt, false); sa != sb {
			t.Fatalf("query %d differs: %s vs %s", i, sa, sb)
		}
	}
}

func TestStreamSeedsAvoidDaemonSeed(t *testing.T) {
	for _, w := range Workloads {
		for seed := int64(0); seed < 100; seed++ {
			if w.StreamSeed(seed) == Forest.Seed {
				t.Fatalf("%s seed %d uses the daemon's own seed", w.Name, seed)
			}
		}
	}
}
