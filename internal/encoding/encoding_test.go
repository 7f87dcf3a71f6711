package encoding

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/gen"
	"medcc/internal/workflow"
)

// reservedSchedule and reservedTrace are the payloads goldenRecord
// stores under ChunkSchedule and ChunkTrace, chunk types the package
// reserves but has no codec for: decoders must hand them out unchanged
// as opaque payloads.
var (
	reservedSchedule = []byte("reserved schedule chunk: opaque to this package")
	reservedTrace    = []byte("reserved trace chunk: opaque to this package")
)

// goldenRecord encodes one full record (workflow + catalog + reserved
// schedule + reserved trace + instance info) for the given paper size;
// it is shared with the fuzz seeds.
func goldenRecord(t testing.TB, sizeIdx int, compress bool) ([]byte, *workflow.Workflow, cloud.Catalog) {
	t.Helper()
	sizes := gen.PaperProblemSizes()
	size := sizes[sizeIdx%len(sizes)]
	rng := rand.New(rand.NewSource(42 + int64(sizeIdx)))
	wf, cat, err := gen.Instance(rng, size)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	var b RecordBuilder
	b.Begin()
	if err := b.Workflow(wf); err != nil {
		t.Fatalf("encode workflow: %v", err)
	}
	if err := b.Catalog(cat); err != nil {
		t.Fatalf("encode catalog: %v", err)
	}
	b.buf = append(b.buf, reservedSchedule...)
	b.add(ChunkSchedule)
	b.buf = append(b.buf, reservedTrace...)
	b.add(ChunkTrace)
	b.InstanceInfo(InstanceInfo{Seed: 42, Index: int64(sizeIdx), Kind: KindGenerated,
		M: uint32(size.M), E: uint32(size.E), N: uint32(size.N)})
	out := AppendHeader(nil, 1)
	out, err = b.AppendRecord(out, compress)
	if err != nil {
		t.Fatalf("append record: %v", err)
	}
	return out, wf.Clone(), cat
}

// parseOne strips the header and parses the single record in data.
func parseOne(t testing.TB, data []byte) Record {
	t.Helper()
	_, n, err := ParseHeader(data)
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	body := data[n+4:]
	rec, err := ParseRecord(body)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return rec
}

func sameWorkflowJSON(t *testing.T, want, got *workflow.Workflow) {
	t.Helper()
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal want: %v", err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("marshal got: %v", err)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("workflow round-trip differs:\nwant %s\ngot  %s", wj, gj)
	}
}

func TestWorkflowRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		for sizeIdx := range gen.PaperProblemSizes() {
			data, wf, _ := goldenRecord(t, sizeIdx, compress)
			rec := parseOne(t, data)
			var d Decoder
			got := workflow.New()
			if err := d.WorkflowInto(rec, rec.Find(ChunkWorkflow), got); err != nil {
				t.Fatalf("size %d compress=%v: %v", sizeIdx, compress, err)
			}
			sameWorkflowJSON(t, wf, got)
			// Bit-exact fields, not just JSON-equal.
			for i := 0; i < wf.NumModules(); i++ {
				w, g := wf.Module(i), got.Module(i)
				if w.Name != g.Name || w.Fixed != g.Fixed ||
					math.Float64bits(w.Workload) != math.Float64bits(g.Workload) ||
					math.Float64bits(w.FixedTime) != math.Float64bits(g.FixedTime) {
					t.Fatalf("module %d differs: %+v != %+v", i, w, g)
				}
			}
		}
	}
}

func TestCatalogScheduleTraceRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		data, _, cat := goldenRecord(t, 7, compress)
		rec := parseOne(t, data)
		var d Decoder

		gotCat, err := d.CatalogInto(rec, rec.Find(ChunkCatalog), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !catalogsEqual(cat, gotCat) {
			t.Fatalf("catalog differs: %+v != %+v", cat, gotCat)
		}

		gotS, err := d.Payload(rec, rec.Find(ChunkSchedule))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotS, reservedSchedule) {
			t.Fatalf("reserved schedule chunk = %q, want %q", gotS, reservedSchedule)
		}

		gotTr, err := d.Payload(rec, rec.Find(ChunkTrace))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotTr, reservedTrace) {
			t.Fatalf("reserved trace chunk = %q, want %q", gotTr, reservedTrace)
		}

		info, err := d.InstanceInfo(rec, rec.Find(ChunkInstanceInfo))
		if err != nil {
			t.Fatal(err)
		}
		if info.Seed != 42 || info.Index != 7 || info.Kind != KindGenerated {
			t.Fatalf("instance info differs: %+v", info)
		}
	}
}

func TestCompressionShrinksLargePayloads(t *testing.T) {
	raw, _, _ := goldenRecord(t, 19, false)
	comp, _, _ := goldenRecord(t, 19, true)
	if len(comp) >= len(raw) {
		t.Fatalf("compressed record (%d bytes) not smaller than raw (%d bytes)", len(comp), len(raw))
	}
}

func TestCorpusWriterReader(t *testing.T) {
	sizes := gen.PaperProblemSizes()[:6]
	var buf bytes.Buffer
	cw, err := NewCorpusWriter(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	var b gen.Builder
	want := make([]*workflow.Workflow, len(sizes))
	cats := make([]cloud.Catalog, len(sizes))
	for i, size := range sizes {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		wf, cat, err := b.Instance(rng, size)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wf.Clone()
		cats[i] = cat
		if err := cw.WriteInstance(wf, cat, InstanceInfo{Seed: 100, Index: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.Count() != len(sizes) {
		t.Fatalf("wrote %d records, want %d", cw.Count(), len(sizes))
	}

	// Catalog dedup: sizes share N values (3,4,5,5,5,6 → 4 distinct),
	// so the stream must carry fewer inline catalogs than records.
	distinct := map[int]bool{}
	for _, s := range sizes {
		distinct[s.N] = true
	}

	cr, err := NewCorpusReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wf := workflow.New()
	inline := 0
	for i := range sizes {
		cat, info, err := cr.Next(wf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if info.Index != int64(i) {
			t.Fatalf("record %d: info.Index = %d", i, info.Index)
		}
		sameWorkflowJSON(t, want[i], wf)
		if !catalogsEqual(cat, cats[i]) {
			t.Fatalf("record %d catalog differs", i)
		}
	}
	if _, _, err := cr.Next(wf); err == nil {
		t.Fatal("expected EOF after last record")
	}
	if cr.nCats != len(distinct) {
		t.Fatalf("dictionary holds %d catalogs, want %d distinct", cr.nCats, len(distinct))
	}
	_ = inline

	// Reset and re-read: same contents, catalog dictionary reused.
	prevCat := cr.cats[0]
	if err := cr.Reset(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i := range sizes {
		_, _, err := cr.Next(wf)
		if err != nil {
			t.Fatalf("re-read record %d: %v", i, err)
		}
		sameWorkflowJSON(t, want[i], wf)
	}
	if &cr.cats[0][0] != &prevCat[0] {
		t.Fatal("Reset re-decoded an identical catalog instead of reusing it")
	}
}

func TestCorpusReaderNextRaw(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewCorpusWriter(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	var b gen.Builder
	rng := rand.New(rand.NewSource(7))
	wf, cat, err := b.Instance(rng, gen.ProblemSize{M: 20, E: 40, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := wf.Clone()
	if err := cw.WriteInstance(wf, cat, InstanceInfo{}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewCorpusReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rec, gotCat, _, err := cr.NextRaw()
	if err != nil {
		t.Fatal(err)
	}
	if !catalogsEqual(cat, gotCat) {
		t.Fatal("catalog differs")
	}
	// A worker copies the body and decodes with its own scratch.
	body := append([]byte(nil), rec.Body()...)
	rec2, err := ParseRecord(body)
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	got := workflow.New()
	if err := d.WorkflowInto(rec2, rec2.Find(ChunkWorkflow), got); err != nil {
		t.Fatal(err)
	}
	sameWorkflowJSON(t, want, got)
}

func TestHeaderErrors(t *testing.T) {
	good := AppendHeader(nil, 3)
	cases := map[string][]byte{
		"truncated":   good[:10],
		"bad magic":   append([]byte("XXXX"), good[4:]...),
		"bad version": func() []byte { b := append([]byte(nil), good...); b[4] = 99; return b }(),
		"bad flags":   func() []byte { b := append([]byte(nil), good...); b[6] = 1; return b }(),
		"reserved":    func() []byte { b := append([]byte(nil), good...); b[12] = 1; return b }(),
	}
	for name, data := range cases {
		if _, _, err := ParseHeader(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if n, hl, err := ParseHeader(good); err != nil || n != 3 || hl != headerLen {
		t.Fatalf("good header: n=%d hl=%d err=%v", n, hl, err)
	}
}

func TestRecordErrors(t *testing.T) {
	data, _, _ := goldenRecord(t, 2, false)
	_, n, _ := ParseHeader(data)
	body := data[n+4:]

	// Chunk count beyond the body.
	bad := append([]byte(nil), body...)
	bad[0] = 0xFF
	bad[1] = 0xFF
	if _, err := ParseRecord(bad); err == nil {
		t.Error("oversized chunk table: expected error")
	}

	// Offset pointing into the chunk table.
	bad = append(bad[:0], body...)
	bad[4+8] = 0
	bad[4+9] = 0
	bad[4+10] = 0
	bad[4+11] = 0
	if _, err := ParseRecord(bad); err == nil {
		t.Error("offset into table: expected error")
	}

	// Corrupt payload byte flips the CRC.
	bad = append(bad[:0], body...)
	rec, err := ParseRecord(bad)
	if err != nil {
		t.Fatal(err)
	}
	_, stored, _, _ := rec.entry(0)
	stored[0] ^= 0xFF
	var d Decoder
	if _, err := d.Payload(rec, 0); err == nil {
		t.Error("flipped payload byte: expected CRC error")
	}
}

func TestDecodeSteadyStateAllocs(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewCorpusWriter(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	var b gen.Builder
	for i := 0; i < 8; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		wf, cat, err := b.Instance(rng, gen.PaperProblemSizes()[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteInstance(wf, cat, InstanceInfo{Index: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(buf.Bytes())
	cr, err := NewCorpusReader(src)
	if err != nil {
		t.Fatal(err)
	}
	wf := workflow.New()
	sweep := func() {
		src.Reset(buf.Bytes())
		if err := cr.Reset(src); err != nil {
			t.Fatal(err)
		}
		for {
			if _, _, err := cr.Next(wf); err != nil {
				break
			}
		}
	}
	sweep() // warm pools and the intern table
	sweep()
	allocs := testing.AllocsPerRun(20, sweep)
	if allocs != 0 {
		t.Fatalf("steady-state corpus sweep allocates %.1f times per pass, want 0", allocs)
	}
}
