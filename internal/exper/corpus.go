// Instance sources for the campaign experiments (Table IV / Figs. 8-11,
// the A1 ablation, and the A2 simulator validation). Each experiment has
// one body, a per-item callback on a worker's campaignScratch, and one
// plan that says which generated instance work item k is. The plan drives
// both instance sources:
//
//   - generated: item k's instance is regenerated from its plan entry
//     (per-item RNG stream, problem size) under parallelForWorkers;
//   - corpus: item k's instance is decoded from record k of a binary
//     corpus (internal/encoding) streamed through forEachCorpusRecord,
//     and the record's recorded size is checked against the plan.
//
// writeCorpus freezes a plan's instance set as a corpus, so a
// corpus-backed run reproduces the regenerate path bit for bit (pinned by
// the differential tests in corpus_test.go).
package exper

import (
	"fmt"
	"io"
	"sync"

	"medcc/internal/cloud"
	"medcc/internal/encoding"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// planItem is where one work item's instance comes from: generator
// instance idx of size, drawn from newRNG(seed, idx).
type planItem struct {
	seed int64
	idx  int
	size gen.ProblemSize
}

// plan is an experiment's work-item list: n items, item k described by
// item(k).
type plan struct {
	n    int
	item func(k int) planItem
}

// run loads every work item's instance into a pooled per-worker
// campaignScratch and calls body on it with the instance's budget range
// [Cmin, Cmax]. With a nil src the instances are regenerated from the
// plan; otherwise src is a corpus stream holding exactly the plan's
// instances in item order, and the plan only supplies each record's
// expected size. Items run in parallel; the error returned is the
// lowest-index failing item's.
func (p plan) run(src io.Reader, body func(cs *campaignScratch, k int, cmin, cmax float64) error) error {
	pool := newScratchPool(p.n)
	if src == nil {
		return parallelForWorkers(p.n, func(wk, k int) error {
			cs := &pool[wk]
			it := p.item(k)
			cmin, cmax, err := cs.instance(it.seed, it.idx, it.size)
			if err != nil {
				return err
			}
			return body(cs, k, cmin, cmax)
		})
	}
	return forEachCorpusRecord(src, p.n, len(pool), func(wk, k int, rec encoding.Record, cat cloud.Catalog, info encoding.InstanceInfo) error {
		cs := &pool[wk]
		if err := checkCorpusSize(k, info, p.item(k).size); err != nil {
			return err
		}
		cmin, cmax, err := cs.instanceFrom(rec, cat)
		if err != nil {
			return err
		}
		return body(cs, k, cmin, cmax)
	})
}

// writeCorpus generates the plan's instances in item order and writes
// them as a binary corpus: record k is item k's instance. It returns the
// number of records written.
func (p plan) writeCorpus(w io.Writer, compress bool) (int, error) {
	cw, err := encoding.NewCorpusWriter(w, compress)
	if err != nil {
		return 0, err
	}
	var b gen.Builder
	for k := 0; k < p.n; k++ {
		it := p.item(k)
		wf, cat, err := b.Instance(newRNG(it.seed, it.idx), it.size)
		if err == nil {
			err = cw.WriteInstance(wf, cat, encoding.InstanceInfo{
				Seed: it.seed, Index: int64(k), Kind: encoding.KindGenerated,
				M: uint32(it.size.M), E: uint32(it.size.E), N: uint32(it.size.N),
			})
		}
		if err != nil {
			return k, fmt.Errorf("exper: corpus instance %d: %w", k, err)
		}
	}
	return p.n, cw.Flush()
}

// corpusItem is one record in flight between the corpus feeder and a
// worker: the record body copied out of the reader's cycling buffer,
// plus the resolved catalog and instance info (both safe to share — the
// reader's catalog dictionary is append-only while it lives).
type corpusItem struct {
	k    int
	body []byte
	cat  cloud.Catalog
	info encoding.InstanceInfo
}

// forEachCorpusRecord streams the corpus at r through `workers` parallel
// workers: a feeder goroutine reads records sequentially (the reader is
// single-threaded) and copies each body into one of a bounded set of
// recycled buffers, and workers re-parse and process the copies. fn runs
// with a worker-private index wk, so callers can hand every worker its
// own campaignScratch. Memory stays bounded by the buffer pool no matter
// how long the stream is. The stream must hold exactly n records.
//
// The error contract is parallelForWorkers': the error returned is the
// lowest-index failing record's, whatever the worker count or
// scheduling. A read error at record k ends the feed; it is returned
// only when no earlier record failed.
func forEachCorpusRecord(r io.Reader, n, workers int, fn func(wk, k int, rec encoding.Record, cat cloud.Catalog, info encoding.InstanceInfo) error) error {
	cr, err := encoding.NewCorpusReader(r)
	if err != nil {
		return err
	}
	if total := cr.Len(); total >= 0 && total != n {
		return fmt.Errorf("exper: corpus holds %d records, want %d", total, n)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		// Sequential fast path: process straight out of the reader's
		// buffer, no copies.
		for k := 0; k < n; k++ {
			rec, cat, info, err := cr.NextRaw()
			if err != nil {
				return fmt.Errorf("exper: corpus record %d: %w", k, err)
			}
			if err := fn(0, k, rec, cat, info); err != nil {
				return err
			}
		}
		return corpusDrained(cr)
	}
	free := make(chan []byte, 2*workers)
	for i := 0; i < 2*workers; i++ {
		free <- nil
	}
	work := make(chan corpusItem, 2*workers)
	errs := make([]itemErr, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for it := range work {
				rec, err := encoding.ParseRecord(it.body)
				if err != nil {
					err = fmt.Errorf("exper: corpus record %d: %w", it.k, err)
				} else {
					err = fn(wk, it.k, rec, it.cat, it.info)
				}
				errs[wk].note(it.k, err)
				free <- it.body
			}
		}(wk)
	}
	var feedErr error
	for k := 0; k < n; k++ {
		rec, cat, info, err := cr.NextRaw()
		if err != nil {
			feedErr = fmt.Errorf("exper: corpus record %d: %w", k, err)
			break
		}
		buf := <-free
		buf = append(buf[:0], rec.Body()...)
		work <- corpusItem{k: k, body: buf, cat: cat, info: info}
	}
	close(work)
	wg.Wait()
	if err := lowestErr(errs); err != nil {
		return err
	}
	if feedErr != nil {
		return feedErr
	}
	return corpusDrained(cr)
}

// corpusDrained verifies the stream ended where the caller's record
// count said it would — trailing records mean the corpus was written for
// a different experiment shape, which silently skewed results would hide.
func corpusDrained(cr *encoding.CorpusReader) error {
	if _, _, err := cr.Next(workflow.New()); err != io.EOF {
		if err != nil {
			return fmt.Errorf("exper: corpus has trailing data: %w", err)
		}
		return fmt.Errorf("exper: corpus has more records than the experiment consumes")
	}
	return nil
}

// checkCorpusSize rejects a record whose provenance does not match the
// problem size the experiment expects at its position.
func checkCorpusSize(k int, info encoding.InstanceInfo, size gen.ProblemSize) error {
	if info.Kind != encoding.KindGenerated || int(info.M) != size.M || int(info.E) != size.E || int(info.N) != size.N {
		return fmt.Errorf("exper: corpus record %d is kind=%d {m=%d,e=%d,n=%d}, want a generated {m=%d,e=%d,n=%d} instance",
			k, info.Kind, info.M, info.E, info.N, size.M, size.E, size.N)
	}
	return nil
}

// instanceFrom decodes a corpus record into the pooled decode-target
// workflow and rebuilds the matrices in place — the corpus counterpart
// of campaignScratch.instance, returning the same [Cmin, Cmax].
func (cs *campaignScratch) instanceFrom(rec encoding.Record, cat cloud.Catalog) (cmin, cmax float64, err error) {
	ci := rec.Find(encoding.ChunkWorkflow)
	if ci < 0 {
		return 0, 0, fmt.Errorf("exper: corpus record has no workflow chunk")
	}
	if cs.cwf == nil {
		cs.cwf = workflow.New()
	}
	if err := cs.dec.WorkflowInto(rec, ci, cs.cwf); err != nil {
		return 0, 0, err
	}
	cs.w = cs.cwf
	cs.m, err = cs.w.BuildMatricesInto(cat, cloud.HourlyRoundUp, cs.m)
	if err != nil {
		return 0, 0, err
	}
	cs.lc = cs.m.LeastCostInto(cs.w, cs.lc)
	cs.fast = cs.m.FastestInto(cs.w, cs.fast)
	return cs.m.Cost(cs.lc), cs.m.Cost(cs.fast), nil
}
