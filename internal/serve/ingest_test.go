package serve

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"medcc/internal/gen"
)

// TestInlineIngestAllocs pins the inline-request ingest path at zero
// allocations: once the pooled decoder, workflow and matrices have grown
// to the largest instance seen, decoding a container body (WorkflowInto)
// and binding it (BuildMatricesInto, whose Validate rebuilds the graph's
// topo/CSR cache in place, then BudgetRange for the fraction budget)
// allocates nothing, even as consecutive bodies change size and shape.
func TestInlineIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := testServer(t, Config{Workers: 1})
	rng := rand.New(rand.NewSource(12))
	var b gen.Builder
	var bodies [][]byte
	for _, size := range gen.PaperProblemSizes()[10:] {
		w, cat, err := b.Instance(rng, size)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, containerBody(t, w, cat))
	}

	j := newJob()
	ds := newDecodeScratch()
	var src bytes.Reader
	next := 0
	ingest := func() {
		j.reset()
		src.Reset(bodies[next%len(bodies)])
		next++
		ds.br.Reset(&src)
		p := Params{UseFraction: true, Fraction: 0.5}
		if err := ds.containerInstance(j, &p); err != nil {
			t.Fatal(err)
		}
		if err := s.prepare(j, p); err != nil {
			t.Fatal(err)
		}
		if j.m != j.ownM || j.w != j.ownW {
			t.Fatal("inline request did not bind the job-owned instance")
		}
	}
	for range bodies { // grow every pooled array to the largest body
		ingest()
	}
	if allocs := minPassAllocs(len(bodies), ingest); allocs != 0 {
		t.Errorf("warm inline ingest allocates %v times per pass over the %d bodies, want 0", allocs, len(bodies))
	}
}

// TestInlineScheduleAllocs carries the inline pin through the worker
// round trip: decode, bind, a Critical-Greedy solve on a worker and the
// MED on its pooled timing, cycling the ten paper sizes so consecutive
// requests change size. The engine and the worker rebind their timings
// in place (dag.Timing.Reset), and the Into helpers reuse capacity, so
// once every pooled array has grown to the largest body a request
// allocates nothing.
func TestInlineScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := testServer(t, Config{Workers: 1})
	rng := rand.New(rand.NewSource(13))
	var b gen.Builder
	var bodies [][]byte
	for _, size := range gen.PaperProblemSizes()[10:] {
		w, cat, err := b.Instance(rng, size)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, containerBody(t, w, cat))
	}

	j := newJob()
	ds := newDecodeScratch()
	var src bytes.Reader
	var res Result
	next := 0
	request := func() {
		j.reset()
		src.Reset(bodies[next%len(bodies)])
		next++
		ds.br.Reset(&src)
		p := Params{UseFraction: true, Fraction: 0.5}
		if err := ds.containerInstance(j, &p); err != nil {
			t.Fatal(err)
		}
		if err := s.prepare(j, p); err != nil {
			t.Fatal(err)
		}
		if err := s.schedule(j, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Schedule) != j.w.NumModules() {
			t.Fatalf("schedule of %d modules for a %d-module body", len(res.Schedule), j.w.NumModules())
		}
	}
	for range bodies { // grow every pooled array to the largest body
		request()
	}
	if allocs := minPassAllocs(len(bodies), request); allocs != 0 {
		t.Errorf("warm inline request allocates %v times per pass over the %d bodies, want 0", allocs, len(bodies))
	}
}

// minPassAllocs counts the allocations of one pass of n calls to next,
// one per body, and returns the fewest over 5 passes. A per-pass count
// keeps an allocation on one body in n from rounding away, as it does in
// testing.AllocsPerRun's integer average over single calls; the minimum
// drops an allocation some other goroutine of the process makes during a
// pass.
func minPassAllocs(n int, next func()) float64 {
	pass := func() {
		for i := 0; i < n; i++ {
			next()
		}
	}
	fewest := math.Inf(1)
	for k := 0; k < 5; k++ {
		fewest = min(fewest, testing.AllocsPerRun(1, pass))
	}
	return fewest
}
