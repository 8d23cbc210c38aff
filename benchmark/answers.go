package main

// Answer checking. Point lookups and transitive-closure reads are checked
// against the generator's own rows. View queries need a query processor to
// answer, so their answers are frozen in expected/digests.txt: generated once
// under the Original strategy, cross-checked against Correlated and EMST
// (see freeze), and compared on every read ever after.

import (
	_ "embed"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"starmagic/internal/datum"
	"starmagic/internal/wire"
)

//go:embed expected/digests.txt
var frozenDigests string

// parseDigests reads "key digest" lines.
func parseDigests(text string) (map[string]uint64, error) {
	out := map[string]uint64{}
	for n, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		var key string
		var d uint64
		if _, err := fmt.Sscanf(line, "%s %x", &key, &d); err != nil {
			return nil, fmt.Errorf("expected/digests.txt line %d: %w", n+1, err)
		}
		out[key] = d
	}
	return out, nil
}

// digest hashes a result as a bag of rows: row order does not matter, cell
// order and duplicates do.
func digest(rows [][]string) uint64 {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

// textRows renders engine rows the way the wire protocol does, so one
// digest serves embedded and wire reads.
func textRows(rows []datum.Row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, d := range r {
			cells[j] = d.Format()
		}
		out[i] = cells
	}
	return out
}

func cellRows(rs *wire.Resultset) [][]string {
	out := make([][]string, len(rs.Rows))
	for i, r := range rs.Rows {
		cells := make([]string, len(r))
		for j, c := range r {
			if c.Valid {
				cells[j] = c.Value
			} else {
				cells[j] = "NULL"
			}
		}
		out[i] = cells
	}
	return out
}

// checker decides whether a read returned the right rows.
type checker struct {
	ds      *dataset
	digests map[string]uint64
	// mutable marks a workload that writes: employee salaries and the views
	// over them move, so those reads are checked for shape (one row, right
	// key) instead of by value.
	mutable bool
}

func newChecker(ds *dataset, mutable bool) (*checker, error) {
	d, err := parseDigests(frozenDigests)
	if err != nil {
		return nil, err
	}
	return &checker{ds: ds, digests: d, mutable: mutable}, nil
}

// check returns nil when rows is the right answer to o.
func (c *checker) check(o *op, rows [][]string) error {
	switch o.shape.id {
	case "PK":
		want := c.ds.emp[o.args[0].(int64)]
		if len(rows) != 1 || len(rows[0]) != len(want) {
			return fmt.Errorf("%s: got %d rows, want exactly 1", o.key, len(rows))
		}
		for j, d := range want {
			if j == empSalaryCol && c.mutable {
				continue
			}
			if rows[0][j] != d.Format() {
				return fmt.Errorf("%s: column %d is %q, want %q", o.key, j, rows[0][j], d.Format())
			}
		}
		return nil
	case "TC":
		src := o.args[0].(int64)
		want := make([][]string, 0, tcChainLen)
		for n := src + 1; n%tcStride < tcChainLen; n++ {
			want = append(want, []string{fmt.Sprint(n)})
		}
		if digest(rows) != digest(want) {
			return fmt.Errorf("%s: got %d rows, want the %d successors of %d", o.key, len(rows), len(want), src)
		}
		return nil
	}
	if c.mutable {
		if len(rows) != 1 || rows[0][0] != o.args[0] {
			return fmt.Errorf("%s: got %d rows, want exactly 1 for %v", o.key, len(rows), o.args[0])
		}
		return nil
	}
	want, ok := c.digests[o.key]
	if !ok {
		return fmt.Errorf("%s: no frozen digest (regenerate with -freeze)", o.key)
	}
	if got := digest(rows); got != want {
		return fmt.Errorf("%s: digest %016x over %d rows, frozen %016x", o.key, got, len(rows), want)
	}
	return nil
}
