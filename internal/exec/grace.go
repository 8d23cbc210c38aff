// Partition-wise grace-hash probing. When a hash stage's build side spills
// (spillJoin pages partitions to disk during the build), per-probe lookups
// thrash: each outer row may fault a different 1/64th partition back in,
// evicting the one the previous row just loaded — O(probe rows) partition
// reloads in the worst case. The grace probe instead mirrors the build's
// partitioning on the probe side: the outer rows are drained once into
// sequence-tagged partition files (same FNV hash over the same AppendKey
// encoding), then each (probe partition, build partition) pair is joined
// with the build partition paged in exactly once, and the per-partition
// output runs are merged back by sequence number. Every build partition is
// read from disk at most once, and the merge reproduces the exact output
// row order of per-probe lookups: sequence numbers are assigned in probe
// order, all outputs of one probe row land consecutively in a single run
// (one key → one partition), and runs never share a sequence number.
//
// The mode engages only for the shape that dominates spilled joins — a
// two-stage pipeline with a streamed driving stage and one hash stage, no
// scalar subqueries, semi/anti-join checks, or post-predicates — and only
// when the build actually spilled; in-memory builds keep the direct probe.
package exec

import (
	"encoding/binary"
	"fmt"
	"io"

	"starmagic/internal/datum"
	"starmagic/internal/plan"
	"starmagic/internal/resource"
)

// graceShape reports whether stage i is eligible for a partition-wise grace
// probe: the hash stage is the inner of a two-stage pipeline driven by a
// stream, and completing a binding needs nothing beyond the stage residual
// filters and projection (those re-evaluate cleanly from a decoded probe
// row; scalar subqueries and semi/anti checks would not).
func (p *selectPipeOp) graceShape(i int) bool {
	return i == 1 && len(p.stages) == 2 &&
		p.stages[0].st.Access == plan.AccessStream &&
		len(p.n.Scalars) == 0 && len(p.n.Subqs) == 0 && len(p.n.PostPreds) == 0
}

// graceHead is one merge input: the next (sequence, row) of a run.
type graceHead struct {
	seq uint64
	row datum.Row
	ok  bool
}

// graceJoin is the merge-emission state left after the partition pairs have
// been joined: one reader per non-empty output run, merged by sequence.
type graceJoin struct {
	files   []*resource.SpillFile
	readers []*recordReader
	heads   []graceHead
}

func (g *graceJoin) advance(i int) error {
	rec, err := g.readers[i].next()
	if err == io.EOF {
		g.heads[i].ok = false
		return nil
	}
	if err != nil {
		return err
	}
	seq, m := binary.Uvarint(rec)
	if m <= 0 {
		return fmt.Errorf("exec: corrupt grace run record")
	}
	row, _, err := datum.DecodeRow(rec[m:])
	if err != nil {
		return err
	}
	g.heads[i] = graceHead{seq: seq, row: row, ok: true}
	return nil
}

func (g *graceJoin) close() {
	for _, sf := range g.files {
		sf.Close()
	}
	g.files, g.readers, g.heads = nil, nil, nil
}

// graceRun executes the partition-wise join for stage ss (the hash stage of
// a graceShape pipeline) whose build just spilled. On entry the driving
// stage's current row is bound in p.env; graceRun consumes it and the rest
// of the driving stage, joins partition pairs, and installs p.grace for
// next() to emit from. Counter accounting matches the per-probe path: one
// HashProbes per non-NULL-key outer row, ticks per candidate build row.
func (p *selectPipeOp) graceRun(ss *stageState) error {
	ev := p.r.ev
	ev.Counters.GraceJoins++
	note := p.r.spillNote(p.n)
	q0 := p.stages[0].st.Quant
	q1 := ss.st.Quant

	var parts [spillParts]*recordWriter
	var runs []*recordWriter
	done := false
	defer func() {
		if done {
			return
		}
		for _, rw := range parts {
			if rw != nil {
				rw.sf.Close()
			}
		}
		for _, rw := range runs {
			rw.sf.Close()
		}
	}()

	// Phase 1: drain the probe side into sequence-tagged partition files,
	// starting with the binding already live in p.env.
	var seq uint64
	var rec []byte
	writeProbe := func() error {
		ev.keyBuf = ev.keyBuf[:0]
		for _, e := range ss.st.KeyOther {
			v, err := EvalExpr(e, p.env)
			if err != nil {
				return err
			}
			if v.IsNull() {
				return nil // equality never matches NULL: no probe
			}
			ev.keyBuf = v.AppendKey(ev.keyBuf)
		}
		ev.Counters.HashProbes++
		pi := partOf(ev.keyBuf)
		rw := parts[pi]
		if rw == nil {
			var err error
			rw, err = newRecordWriter(ev.Mem, "grace-probe")
			if err != nil {
				return err
			}
			parts[pi] = rw
		}
		rec = binary.AppendUvarint(rec[:0], seq)
		seq++
		rec = binary.AppendUvarint(rec, uint64(len(ev.keyBuf)))
		rec = append(rec, ev.keyBuf...)
		rec = datum.AppendEncodedRow(rec, p.env[q0])
		return rw.write(rec)
	}
	if err := writeProbe(); err != nil {
		return err
	}
	for {
		ok, err := p.advanceStage(0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := writeProbe(); err != nil {
			return err
		}
	}

	// Phase 2: join each probe partition against its build partition, paged
	// in once. Matches stream to per-partition output runs; nothing from the
	// join accumulates in memory, so the resident build partition is never
	// evicted mid-pair.
	for pi := 0; pi < spillParts; pi++ {
		rw := parts[pi]
		if rw == nil {
			continue
		}
		if err := rw.flush(); err != nil {
			return err
		}
		ev.Mem.NoteSpill(rw.bytes)
		note(rw.bytes)
		bmap, err := ss.sht.partition(pi)
		if err != nil {
			return err
		}
		rr, err := newRecordReader(rw.sf)
		if err != nil {
			return err
		}
		var out *recordWriter
		for {
			prec, err := rr.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			s, m := binary.Uvarint(prec)
			if m <= 0 {
				return fmt.Errorf("exec: corrupt grace probe record")
			}
			prec = prec[m:]
			klen, m := binary.Uvarint(prec)
			if m <= 0 || uint64(len(prec)-m) < klen {
				return fmt.Errorf("exec: corrupt grace probe record")
			}
			key := prec[m : m+int(klen)]
			bucket := bmap[string(key)]
			if bucket == nil {
				continue
			}
			row, _, err := datum.DecodeRow(prec[m+int(klen):])
			if err != nil {
				return err
			}
			p.env[q0] = row
			for _, brow := range bucket.rows {
				if err := ev.tick(); err != nil {
					return err
				}
				p.env[q1] = brow
				pass := true
				for _, pred := range ss.st.Residual {
					tv, err := EvalPred(pred, p.env)
					if err != nil {
						return err
					}
					if tv != datum.True {
						pass = false
						break
					}
				}
				if !pass {
					continue
				}
				outRow, err := ev.projectRow(p.n.Box, p.env)
				if err != nil {
					return err
				}
				if out == nil {
					out, err = newRecordWriter(ev.Mem, "grace-out")
					if err != nil {
						return err
					}
				}
				rec = binary.AppendUvarint(rec[:0], s)
				rec = datum.AppendEncodedRow(rec, outRow)
				if err := out.write(rec); err != nil {
					return err
				}
			}
		}
		rw.sf.Close()
		parts[pi] = nil
		if out != nil {
			if err := out.flush(); err != nil {
				return err
			}
			ev.Mem.NoteSpill(out.bytes)
			note(out.bytes)
			runs = append(runs, out)
		}
	}
	delete(p.env, q0)
	delete(p.env, q1)
	// The build table is fully consumed: release its partitions (and their
	// reservation) before emission hands rows to parent operators.
	ss.sht.close()
	ss.sht = nil

	// Phase 3: prime the sequence merge.
	g := &graceJoin{}
	for _, rw := range runs {
		rr, err := newRecordReader(rw.sf)
		if err != nil {
			return err
		}
		g.files = append(g.files, rw.sf)
		g.readers = append(g.readers, rr)
		g.heads = append(g.heads, graceHead{})
	}
	for i := range g.readers {
		if err := g.advance(i); err != nil {
			return err
		}
	}
	done = true
	p.grace = g
	return nil
}

// graceNext emits the next batch of merged output rows in probe order. Runs
// never share a sequence number (one key hashes to one partition), so the
// minimum-sequence head is unique and the merge is a stable reconstruction
// of the per-probe output order.
func (p *selectPipeOp) graceNext() ([]datum.Row, error) {
	if p.done {
		return nil, nil
	}
	g := p.grace
	var out []datum.Row
	for len(out) < streamBatch {
		best := -1
		for i := range g.heads {
			if !g.heads[i].ok {
				continue
			}
			if best < 0 || g.heads[i].seq < g.heads[best].seq {
				best = i
			}
		}
		if best < 0 {
			p.done = true
			break
		}
		out = append(out, g.heads[best].row)
		if err := g.advance(best); err != nil {
			return nil, err
		}
	}
	if p.n.BoxRoot && len(out) > 0 {
		if err := p.r.ev.addOutput(len(out)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
