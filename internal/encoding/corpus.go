package encoding

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"medcc/internal/cloud"
	"medcc/internal/workflow"
)

// maxRecordLen caps one record body; anything larger in a length prefix
// marks a corrupt or adversarial file and is rejected before a buffer
// is sized from it.
const maxRecordLen = 1 << 28

// CorpusWriter streams instance records (workflow + catalog + instance
// info) to one container file. Catalogs are deduplicated: the first
// appearance of a distinct catalog is encoded inline as a ChunkCatalog,
// later records reference it by order of appearance via ChunkCatalogRef,
// so a 10^5-instance corpus over a handful of catalogs stores each
// catalog once.
type CorpusWriter struct {
	w        *bufio.Writer
	b        RecordBuilder
	rec      []byte
	cats     []cloud.Catalog
	compress bool
	count    int
}

// NewCorpusWriter starts a streamed corpus (record count unknown up
// front) on w. With compress set, chunks that shrink under DEFLATE are
// stored compressed. Call Flush when done.
func NewCorpusWriter(w io.Writer, compress bool) (*CorpusWriter, error) {
	cw := &CorpusWriter{w: bufio.NewWriterSize(w, 1<<16), compress: compress}
	hdr := AppendHeader(cw.rec[:0], StreamRecordCount)
	if _, err := cw.w.Write(hdr); err != nil {
		return nil, err
	}
	return cw, nil
}

// WriteInstance appends one instance record.
func (cw *CorpusWriter) WriteInstance(wf *workflow.Workflow, cat cloud.Catalog, info InstanceInfo) error {
	cw.b.Begin()
	if err := cw.b.Workflow(wf); err != nil {
		return err
	}
	if idx := cw.catalogIndex(cat); idx >= 0 {
		cw.b.CatalogRef(idx)
	} else {
		if err := cw.b.Catalog(cat); err != nil {
			return err
		}
		cw.cats = append(cw.cats, append(cloud.Catalog(nil), cat...))
	}
	cw.b.InstanceInfo(info)
	rec, err := cw.b.AppendRecord(cw.rec[:0], cw.compress)
	if err != nil {
		return err
	}
	cw.rec = rec
	if _, err := cw.w.Write(rec); err != nil {
		return err
	}
	cw.count++
	return nil
}

// catalogIndex returns the dictionary index of an already-emitted
// catalog equal to cat, or -1.
//
// medcc:floateq-exact — dictionary hits require bit-identical entries;
// a near-equal catalog is a different catalog.
func (cw *CorpusWriter) catalogIndex(cat cloud.Catalog) int {
	for i, c := range cw.cats {
		if catalogsEqual(c, cat) {
			return i
		}
	}
	return -1
}

// catalogsEqual compares catalogs field-by-field with bit-exact floats.
//
// medcc:floateq-exact
func catalogsEqual(a, b cloud.Catalog) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name ||
			math.Float64bits(a[i].Power) != math.Float64bits(b[i].Power) ||
			math.Float64bits(a[i].Rate) != math.Float64bits(b[i].Rate) ||
			math.Float64bits(a[i].CPUGHz) != math.Float64bits(b[i].CPUGHz) ||
			a[i].RAMKB != b[i].RAMKB ||
			math.Float64bits(a[i].DiskGB) != math.Float64bits(b[i].DiskGB) {
			return false
		}
	}
	return true
}

// Count returns the number of records written so far.
func (cw *CorpusWriter) Count() int { return cw.count }

// Flush drains buffered output to the underlying writer.
func (cw *CorpusWriter) Flush() error { return cw.w.Flush() }

// CorpusReader streams instance records back out of a corpus file,
// resolving the catalog dictionary as it goes. The reader owns pooled
// scratch (record buffer, Decoder, decoded catalogs) and is reusable
// across streams via Reset; re-reading a stream whose catalogs match
// the previous pass byte-for-byte reuses the decoded catalog values, so
// steady-state sweeps over an in-memory corpus decode with zero
// allocations per record.
//
// A CorpusReader is not safe for concurrent use. The values handed out
// by Next/NextRaw (workflow contents, catalog, record body) are reused
// by the following call.
type CorpusReader struct {
	src  io.Reader
	dec  Decoder
	body []byte
	hdr  [16]byte

	// catalog dictionary, by order of appearance in the stream; catRaw
	// keeps each catalog's stored payload so Reset can prove a re-seen
	// catalog identical (bytes.Equal) and skip re-decoding it.
	cats   []cloud.Catalog
	catRaw [][]byte
	nCats  int

	total uint32 // header record count (StreamRecordCount for streams)
	read  int
}

// NewCorpusReader opens a corpus stream. For files, wrap the *os.File
// in a bufio.Reader first — the reader issues two Reads per record.
func NewCorpusReader(r io.Reader) (*CorpusReader, error) {
	cr := &CorpusReader{}
	if err := cr.Reset(r); err != nil {
		return nil, err
	}
	return cr, nil
}

// Reset rebinds the reader to a new stream, keeping all scratch. The
// catalog dictionary is revalidated lazily: each catalog chunk's stored
// payload is compared against the previous stream's, and only differing
// catalogs are re-decoded.
func (cr *CorpusReader) Reset(r io.Reader) error {
	cr.src = r
	cr.nCats = 0
	cr.read = 0
	if _, err := io.ReadFull(cr.src, cr.hdr[:]); err != nil {
		return fmt.Errorf("encoding: corpus header: %w", err)
	}
	total, _, err := ParseHeader(cr.hdr[:])
	if err != nil {
		return err
	}
	cr.total = total
	return nil
}

// Len returns the record count declared in the header, or -1 for
// streamed files (read until EOF).
func (cr *CorpusReader) Len() int {
	if cr.total == StreamRecordCount {
		return -1
	}
	return int(cr.total)
}

// NextRaw advances to the next record and returns its parsed view plus
// the resolved catalog and instance info. The workflow chunk is left
// undecoded — parallel consumers copy the body (Record.Body) and decode
// with worker-private Decoders. Returns io.EOF cleanly at end of
// stream.
//
// medcc:allocfree
func (cr *CorpusReader) NextRaw() (Record, cloud.Catalog, InstanceInfo, error) {
	if cr.total != StreamRecordCount && uint32(cr.read) >= cr.total {
		return Record{}, nil, InstanceInfo{}, io.EOF
	}
	if _, err := io.ReadFull(cr.src, cr.hdr[:4]); err != nil {
		if err == io.EOF && cr.total == StreamRecordCount {
			return Record{}, nil, InstanceInfo{}, io.EOF
		}
		return Record{}, nil, InstanceInfo{}, fmt.Errorf("encoding: record %d length: %w", cr.read, err)
	}
	n := binary.LittleEndian.Uint32(cr.hdr[:4])
	if n > maxRecordLen {
		return Record{}, nil, InstanceInfo{}, fmt.Errorf("encoding: record %d claims %d bytes (max %d)", cr.read, n, maxRecordLen)
	}
	if err := cr.fillBody(int(n)); err != nil {
		return Record{}, nil, InstanceInfo{}, fmt.Errorf("encoding: record %d body: %w", cr.read, err)
	}
	rec, err := ParseRecord(cr.body)
	if err != nil {
		return Record{}, nil, InstanceInfo{}, fmt.Errorf("encoding: record %d: %w", cr.read, err)
	}
	cat, err := cr.resolveCatalog(rec)
	if err != nil {
		return Record{}, nil, InstanceInfo{}, fmt.Errorf("encoding: record %d catalog: %w", cr.read, err)
	}
	info := InstanceInfo{}
	if i := rec.Find(ChunkInstanceInfo); i >= 0 {
		info, err = cr.dec.InstanceInfo(rec, i)
		if err != nil {
			return Record{}, nil, InstanceInfo{}, fmt.Errorf("encoding: record %d instance info: %w", cr.read, err)
		}
	}
	cr.read++
	return rec, cat, info, nil
}

// fillBody reads an n-byte record body into the pooled buffer. Growth
// beyond the high-water mark happens in bounded steps gated on bytes
// actually read, so a corrupt length field on a short stream errors out
// after a small read instead of allocating up to maxRecordLen first.
func (cr *CorpusReader) fillBody(n int) error {
	const growStep = 1 << 20
	if cap(cr.body) >= n {
		cr.body = cr.body[:n]
		_, err := io.ReadFull(cr.src, cr.body)
		return err
	}
	cr.body = cr.body[:cap(cr.body)]
	for have := 0; have < n; {
		if len(cr.body) < n {
			step := n - len(cr.body)
			if step > growStep {
				step = growStep
			}
			cr.body = append(cr.body, make([]byte, step)...) // medcc:lint-ignore allocfree — grow-to-high-water record buffer
		}
		end := len(cr.body)
		if end > n {
			end = n
		}
		if _, err := io.ReadFull(cr.src, cr.body[have:end]); err != nil {
			return err
		}
		have = end
	}
	cr.body = cr.body[:n]
	return nil
}

// Next decodes the next record's workflow into wf and returns the
// resolved catalog and instance info. Returns io.EOF at end of stream.
//
// medcc:allocfree
func (cr *CorpusReader) Next(wf *workflow.Workflow) (cloud.Catalog, InstanceInfo, error) {
	rec, cat, info, err := cr.NextRaw()
	if err != nil {
		return nil, InstanceInfo{}, err
	}
	i := rec.Find(ChunkWorkflow)
	if i < 0 {
		return nil, InstanceInfo{}, fmt.Errorf("encoding: record %d has no workflow chunk", cr.read-1)
	}
	if err := cr.dec.WorkflowInto(rec, i, wf); err != nil {
		return nil, InstanceInfo{}, fmt.Errorf("encoding: record %d workflow: %w", cr.read-1, err)
	}
	return cat, info, nil
}

// resolveCatalog returns the record's catalog: the dictionary entry a
// ChunkCatalogRef points at, or an inline ChunkCatalog admitted to the
// dictionary (reusing the previous stream's decode when the stored
// payload is byte-identical).
//
// medcc:allocfree
func (cr *CorpusReader) resolveCatalog(rec Record) (cloud.Catalog, error) {
	if i := rec.Find(ChunkCatalogRef); i >= 0 {
		idx, err := cr.dec.CatalogRef(rec, i)
		if err != nil {
			return nil, err
		}
		if idx < 0 || idx >= cr.nCats {
			return nil, fmt.Errorf("encoding: catalog ref %d outside dictionary of %d", idx, cr.nCats)
		}
		return cr.cats[idx], nil
	}
	i := rec.Find(ChunkCatalog)
	if i < 0 {
		return nil, nil
	}
	_, stored, _, _ := rec.entry(i)
	k := cr.nCats
	if k < len(cr.cats) && bytes.Equal(cr.catRaw[k], stored) {
		cr.nCats++
		return cr.cats[k], nil
	}
	return cr.admitCatalog(rec, i, stored)
}

// admitCatalog decodes an inline catalog into dictionary slot nCats.
//
// medcc:coldpath — runs once per distinct catalog per stream; sweeps
// re-reading the same corpus hit the bytes.Equal fast path instead.
func (cr *CorpusReader) admitCatalog(rec Record, i int, stored []byte) (cloud.Catalog, error) {
	k := cr.nCats
	if k == len(cr.cats) {
		cr.cats = append(cr.cats, nil)
		cr.catRaw = append(cr.catRaw, nil)
	}
	cat, err := cr.dec.CatalogInto(rec, i, cr.cats[k])
	if err != nil {
		return nil, err
	}
	cr.cats[k] = cat
	cr.catRaw[k] = append(cr.catRaw[k][:0], stored...)
	cr.nCats++
	return cat, nil
}

// Body exposes the raw record body backing a Record returned by
// NextRaw, for consumers that copy records to worker-private buffers.
//
// medcc:allocfree
func (r Record) Body() []byte { return r.body }
