// Package gen makes the benchmark's inputs and recounts their answers.
//
// Everything here is derived from the benchmark seed and the forest table
// the daemon builds at its default flags; nothing depends on the daemon's
// serving or estimation code. Queries follow the shapes of the paper's
// single-table workloads (Section 5): up to eight distinct attributes, each
// with a closed range (or a one-sided bound, or an equality on a binary
// attribute) anchored at one data row, plus up to five not-equal predicates
// inside the range. Mixed queries OR up to three such per-attribute
// conjunctions together (Definition 3.3). Every predicate set is anchored at
// one row, so no query is empty.
package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"qfe/internal/dataset"
	"qfe/internal/table"
)

// Forest is the table the daemon builds at its default flags: -rows 20000
// and -seed 1, with the attribute mix cli.BuildForestEnv uses.
var Forest = dataset.ForestConfig{Rows: 20_000, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1}

const (
	maxAttrs     = 8 // attributes per query, as in the daemon's training workload
	maxNotEquals = 5 // not-equal predicates per attribute range
	maxBranches  = 3 // OR-ed conjunctions per attribute in mixed queries
)

// Op is a comparison operator.
type Op uint8

const (
	Ge Op = iota
	Le
	Eq
	Ne
)

var opText = [...]string{Ge: ">=", Le: "<=", Eq: "=", Ne: "<>"}

// Pred is one comparison of a column with an integer literal.
type Pred struct {
	Col int
	Op  Op
	Val int64
}

func (p Pred) holds(v int64) bool {
	switch p.Op {
	case Ge:
		return v >= p.Val
	case Le:
		return v <= p.Val
	case Eq:
		return v == p.Val
	default:
		return v != p.Val
	}
}

// Query is an AND of per-attribute compounds; each compound is an OR of
// branches and each branch an AND of predicates on that attribute. A
// conjunctive query has exactly one branch per compound.
type Query [][][]Pred

// Table holds the column names and values the generator and the row-scan
// oracle read.
type Table struct {
	Names []string
	Cols  [][]int64
	Rows  int
}

// NewTable builds the forest table with cfg.
func NewTable(cfg dataset.ForestConfig) (*Table, error) {
	t, err := dataset.Forest(cfg)
	if err != nil {
		return nil, err
	}
	return FromTable(t), nil
}

// FromTable reads the integer columns of t, sharing their storage.
func FromTable(t *table.Table) *Table {
	out := &Table{Names: t.ColumnNames(), Rows: t.NumRows()}
	for _, c := range t.Columns() {
		out.Cols = append(out.Cols, c.Vals)
	}
	return out
}

// Generator draws queries from one seeded stream.
type Generator struct {
	t     *Table
	rng   *rand.Rand
	mixed bool
	min   []int64
	max   []int64
	seen  map[uint64]bool
}

// NewGenerator returns a stream of distinct queries over t. Two queries are
// distinct when their sets of predicates differ. That is stricter than the
// daemon's fingerprint, which also tells AND/OR structure apart, so no two
// queries of a stream share a cache entry.
func NewGenerator(t *Table, seed int64, mixed bool) *Generator {
	g := &Generator{t: t, rng: rand.New(rand.NewSource(seed)), mixed: mixed, seen: map[uint64]bool{}}
	for _, col := range t.Cols {
		lo, hi := col[0], col[0]
		for _, v := range col {
			lo, hi = min(lo, v), max(hi, v)
		}
		g.min = append(g.min, lo)
		g.max = append(g.max, hi)
	}
	return g
}

// Next returns the next query of the stream that no earlier one repeats.
func (g *Generator) Next() Query {
	for {
		q := g.draw()
		if k := q.key(); !g.seen[k] {
			g.seen[k] = true
			return q
		}
	}
}

func (g *Generator) draw() Query {
	anchor := g.rng.Intn(g.t.Rows)
	k := 1 + g.rng.Intn(min(maxAttrs, len(g.t.Cols)))
	attrs := g.rng.Perm(len(g.t.Cols))[:k]
	q := make(Query, 0, k)
	for _, a := range attrs {
		branches := 1
		if g.mixed {
			branches = 1 + g.rng.Intn(maxBranches)
		}
		// The first branch keeps the shared anchor row, so the whole query
		// matches at least that row; later branches anchor anywhere.
		comp := [][]Pred{g.attrPreds(a, anchor)}
		for b := 1; b < branches; b++ {
			comp = append(comp, g.attrPreds(a, g.rng.Intn(g.t.Rows)))
		}
		q = append(q, comp)
	}
	return q
}

// attrPreds draws the predicates of one branch on column c, all true for
// row anchor.
func (g *Generator) attrPreds(c, anchor int) []Pred {
	v := g.t.Cols[c][anchor]
	mn, mx := g.min[c], g.max[c]
	domain := mx - mn + 1
	if domain <= 4 {
		return []Pred{{c, Eq, v}}
	}
	width := func() int64 {
		f := min(g.rng.ExpFloat64()*0.15, 1)
		return max(int64(f*float64(domain)), 1)
	}
	lo := max(v-g.rng.Int63n(width()+1), mn)
	hi := min(v+g.rng.Int63n(width()+1), mx)
	var ps []Pred
	switch g.rng.Intn(10) {
	case 0:
		ps = append(ps, Pred{c, Ge, lo})
	case 1:
		ps = append(ps, Pred{c, Le, hi})
	default:
		ps = append(ps, Pred{c, Ge, lo}, Pred{c, Le, hi})
	}
	if span := hi - lo + 1; span > 2 {
		used := map[int64]bool{v: true}
		for i, l := 0, g.rng.Intn(maxNotEquals+1); i < l; i++ {
			ex := lo + g.rng.Int63n(span)
			if !used[ex] {
				used[ex] = true
				ps = append(ps, Pred{c, Ne, ex})
			}
		}
	}
	return ps
}

// key hashes the query's set of predicates. Repeats count once, as they
// do in the daemon's fingerprint: "A = 0 OR A = 0" and "A = 0" share a key.
func (q Query) key() uint64 {
	var parts []uint64
	for _, comp := range q {
		for _, br := range comp {
			for _, p := range br {
				// Column values of the forest table are small and non-negative.
				parts = append(parts, uint64(p.Col)<<56|uint64(p.Op)<<48|uint64(p.Val)&(1<<48-1))
			}
		}
	}
	slices.Sort(parts)
	parts = slices.Compact(parts)
	h := fnv.New64a()
	var b [8]byte
	for _, v := range parts {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:]) //nolint:errcheck // hash writes never fail
	}
	return h.Sum64()
}

// SQL renders q as the daemon's dialect reads it. With reversed set, every
// AND lists its operands in reverse order: the same query, spelled
// differently.
func (q Query) SQL(t *Table, reversed bool) string {
	var b strings.Builder
	b.WriteString("SELECT count(*) FROM forest WHERE ")
	pred := func(p Pred) {
		b.WriteString(t.Names[p.Col])
		b.WriteByte(' ')
		b.WriteString(opText[p.Op])
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(p.Val, 10))
	}
	order := func(n int) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
			if reversed {
				idx[i] = n - 1 - i
			}
		}
		return idx
	}
	for ci, c := range order(len(q)) {
		if ci > 0 {
			b.WriteString(" AND ")
		}
		comp := q[c]
		if len(comp) > 1 {
			b.WriteByte('(')
		}
		for bi, br := range comp {
			if bi > 0 {
				b.WriteString(" OR ")
			}
			for pi, p := range order(len(br)) {
				if pi > 0 {
					b.WriteString(" AND ")
				}
				pred(br[p])
			}
		}
		if len(comp) > 1 {
			b.WriteByte(')')
		}
	}
	return b.String()
}

// Count is the row-scan oracle: the number of rows of t that satisfy q,
// read straight from the column values.
func Count(t *Table, q Query) int64 {
	var n int64
	for r := 0; r < t.Rows; r++ {
		if matches(t, q, r) {
			n++
		}
	}
	return n
}

func matches(t *Table, q Query, r int) bool {
	for _, comp := range q {
		hit := false
		for _, br := range comp {
			all := true
			for _, p := range br {
				if !p.holds(t.Cols[p.Col][r]) {
					all = false
					break
				}
			}
			if all {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}
