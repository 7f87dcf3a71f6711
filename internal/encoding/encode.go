package encoding

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math"

	"medcc/internal/cloud"
	"medcc/internal/workflow"
)

// maxNameLen bounds encoded display names (they are stored with u16
// lengths). Real workflow names are tens of bytes.
const maxNameLen = math.MaxUint16

// AppendWorkflow appends the ChunkWorkflow payload for w to dst and
// returns it. Edges are emitted in (source, insertion) order — the same
// canonical order MarshalJSON uses — so binary and JSON round-trips
// normalize identically.
//
// Payload layout (all counts validated against the payload length on
// decode):
//
//	numModules u32 | numEdges u32 |
//	workload f64 x m | fixedTime f64 x m | fixed u8 x m | nameLen u16 x m |
//	from u32 x e | to u32 x e | dataSize f64 x e |
//	names blob
func AppendWorkflow(dst []byte, w *workflow.Workflow) ([]byte, error) {
	g := w.Graph()
	m, e := w.NumModules(), w.NumDependencies()
	dst = appendU32(dst, uint32(m))
	dst = appendU32(dst, uint32(e))
	for i := 0; i < m; i++ {
		dst = appendF64(dst, w.Module(i).Workload)
	}
	for i := 0; i < m; i++ {
		dst = appendF64(dst, w.Module(i).FixedTime)
	}
	for i := 0; i < m; i++ {
		if w.Module(i).Fixed {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	for i := 0; i < m; i++ {
		name := w.Module(i).Name
		if len(name) > maxNameLen {
			return nil, fmt.Errorf("encoding: module %d name is %d bytes (max %d)", i, len(name), maxNameLen)
		}
		dst = appendU16(dst, uint16(len(name)))
	}
	for u := 0; u < m; u++ {
		for range g.Succ(u) {
			dst = appendU32(dst, uint32(u))
		}
	}
	for u := 0; u < m; u++ {
		for _, v := range g.Succ(u) {
			dst = appendU32(dst, uint32(v))
		}
	}
	for u := 0; u < m; u++ {
		for _, ds := range w.DataSizes(u) {
			dst = appendF64(dst, ds)
		}
	}
	for i := 0; i < m; i++ {
		dst = append(dst, w.Module(i).Name...)
	}
	return dst, nil
}

// AppendCatalog appends the ChunkCatalog payload for cat to dst.
//
// Payload layout:
//
//	numTypes u32 |
//	power f64 x n | rate f64 x n | cpuGHz f64 x n | ramKB i64 x n |
//	diskGB f64 x n | nameLen u16 x n | names blob
func AppendCatalog(dst []byte, cat cloud.Catalog) ([]byte, error) {
	dst = appendU32(dst, uint32(len(cat)))
	for _, vt := range cat {
		dst = appendF64(dst, vt.Power)
	}
	for _, vt := range cat {
		dst = appendF64(dst, vt.Rate)
	}
	for _, vt := range cat {
		dst = appendF64(dst, vt.CPUGHz)
	}
	for _, vt := range cat {
		dst = appendU64(dst, uint64(int64(vt.RAMKB)))
	}
	for _, vt := range cat {
		dst = appendF64(dst, vt.DiskGB)
	}
	for i, vt := range cat {
		if len(vt.Name) > maxNameLen {
			return nil, fmt.Errorf("encoding: VM type %d name is %d bytes (max %d)", i, len(vt.Name), maxNameLen)
		}
		dst = appendU16(dst, uint16(len(vt.Name)))
	}
	for _, vt := range cat {
		dst = append(dst, vt.Name...)
	}
	return dst, nil
}

// InstanceInfo is the corpus bookkeeping attached to each instance
// record: enough to tie a decoded instance back to the generator stream
// that produced it (or the file it was converted from) and to skip
// recomputing the budget range when it was recorded at write time.
type InstanceInfo struct {
	// Seed and Index identify the generator stream and the instance's
	// position in it (zero for converted instances).
	Seed  int64
	Index int64
	// Kind distinguishes the instance's origin.
	Kind InstanceKind
	// M, E, N are the problem size (module count, edge count, catalog
	// size) — descriptive, verified against the decoded instance by
	// consumers that care.
	M, E, N uint32
	// CMin, CMax are the instance's budget range when the writer
	// computed it; both zero otherwise.
	CMin, CMax float64
}

// InstanceKind is the origin of a corpus instance.
type InstanceKind uint32

const (
	// KindGenerated marks a synthetic instance from internal/gen.
	KindGenerated InstanceKind = 0
	// KindWfCommons marks an instance converted from a WfCommons JSON file.
	KindWfCommons InstanceKind = 1
	// KindDAX marks an instance converted from a Pegasus DAX XML file.
	KindDAX InstanceKind = 2
)

// instanceInfoLen is the fixed ChunkInstanceInfo payload size.
const instanceInfoLen = 8 + 8 + 4 + 4 + 4 + 4 + 8 + 8

// AppendInstanceInfo appends the fixed-width ChunkInstanceInfo payload.
//
// medcc:allocfree
func AppendInstanceInfo(dst []byte, info InstanceInfo) []byte {
	dst = appendU64(dst, uint64(info.Seed))
	dst = appendU64(dst, uint64(info.Index))
	dst = appendU32(dst, uint32(info.Kind))
	dst = appendU32(dst, info.M)
	dst = appendU32(dst, info.E)
	dst = appendU32(dst, info.N)
	dst = appendF64(dst, info.CMin)
	dst = appendF64(dst, info.CMax)
	return dst
}

// RecordBuilder assembles one record: chunk payloads are appended into
// a shared buffer, then AppendRecord emits the length-prefixed body
// (chunk count, table, payload area). The builder's storage is reused
// across records — a corpus writer cycling Begin/Add.../AppendRecord
// reaches a steady state with zero allocations per record (compression
// excepted).
//
// medcc:scratch
type RecordBuilder struct {
	types []ChunkType
	ends  []int // cumulative payload ends in buf
	buf   []byte

	// compression scratch (cold: only used when compress is requested)
	fw    *flate.Writer
	cbuf  bytes.Buffer
	ckeep []byte
}

// Begin resets the builder for a new record, keeping all storage.
func (b *RecordBuilder) Begin() {
	b.types = b.types[:0]
	b.ends = b.ends[:0]
	b.buf = b.buf[:0]
}

// add registers the bytes appended since the previous chunk end as one
// chunk of the given type.
func (b *RecordBuilder) add(t ChunkType) {
	b.types = append(b.types, t)
	b.ends = append(b.ends, len(b.buf))
}

// Workflow adds a ChunkWorkflow for w.
func (b *RecordBuilder) Workflow(w *workflow.Workflow) error {
	buf, err := AppendWorkflow(b.buf, w)
	if err != nil {
		return err
	}
	b.buf = buf
	b.add(ChunkWorkflow)
	return nil
}

// Catalog adds a ChunkCatalog for cat.
func (b *RecordBuilder) Catalog(cat cloud.Catalog) error {
	buf, err := AppendCatalog(b.buf, cat)
	if err != nil {
		return err
	}
	b.buf = buf
	b.add(ChunkCatalog)
	return nil
}

// CatalogRef adds a ChunkCatalogRef pointing at the index-th catalog
// emitted earlier in the stream.
func (b *RecordBuilder) CatalogRef(index int) {
	b.buf = appendU32(b.buf, uint32(index))
	b.add(ChunkCatalogRef)
}

// InstanceInfo adds a ChunkInstanceInfo.
func (b *RecordBuilder) InstanceInfo(info InstanceInfo) {
	b.buf = AppendInstanceInfo(b.buf, info)
	b.add(ChunkInstanceInfo)
}

// AppendRecord emits the assembled record — bodyLen u32, chunk count,
// chunk table, payloads — onto dst and returns it. With compress set,
// each chunk is DEFLATE-compressed and stored compressed when that
// shrinks it (small chunks typically stay raw). The builder remains
// valid; call Begin to start the next record.
func (b *RecordBuilder) AppendRecord(dst []byte, compress bool) ([]byte, error) {
	n := len(b.types)
	stored := b.buf
	flags := uint32(0)
	var perFlag []uint32
	var perStored [][]byte
	if compress {
		perFlag = make([]uint32, n)
		perStored = make([][]byte, n)
		b.ckeep = b.ckeep[:0]
		offs := make([]int, 0, n+1)
		start := 0
		for i := 0; i < n; i++ {
			raw := b.buf[start:b.ends[i]]
			start = b.ends[i]
			c, err := b.deflate(raw)
			if err != nil {
				return nil, err
			}
			if len(c) < len(raw) {
				perFlag[i] = chunkFlagDeflate
				offs = append(offs, len(b.ckeep))
				b.ckeep = append(b.ckeep, c...)
				perStored[i] = nil // fixed up below; ckeep may still grow
			} else {
				perFlag[i] = 0
				perStored[i] = raw
				offs = append(offs, -1)
			}
		}
		for i := 0; i < n; i++ {
			if perFlag[i]&chunkFlagDeflate != 0 {
				end := len(b.ckeep)
				for j := i + 1; j < n; j++ {
					if offs[j] >= 0 {
						end = offs[j]
						break
					}
				}
				perStored[i] = b.ckeep[offs[i]:end]
			}
		}
	}
	_ = flags

	// Body size: chunk count + table + stored payloads.
	bodyLen := 4 + n*chunkEntryLen
	if compress {
		for i := 0; i < n; i++ {
			bodyLen += len(perStored[i])
		}
	} else {
		bodyLen += len(stored)
	}
	if uint64(bodyLen) > math.MaxUint32 {
		return nil, fmt.Errorf("encoding: record body %d bytes exceeds u32 framing", bodyLen)
	}
	dst = appendU32(dst, uint32(bodyLen))
	dst = appendU32(dst, uint32(n))
	off := 4 + n*chunkEntryLen
	start := 0
	for i := 0; i < n; i++ {
		raw := b.buf[start:b.ends[i]]
		start = b.ends[i]
		sp := raw
		fl := uint32(0)
		if compress {
			sp = perStored[i]
			fl = perFlag[i]
		}
		dst = appendU32(dst, uint32(b.types[i]))
		dst = appendU32(dst, fl)
		dst = appendU32(dst, uint32(off))
		dst = appendU32(dst, uint32(len(sp)))
		dst = appendU32(dst, uint32(len(raw)))
		dst = appendU32(dst, crcOf(sp))
		off += len(sp)
	}
	start = 0
	for i := 0; i < n; i++ {
		raw := b.buf[start:b.ends[i]]
		start = b.ends[i]
		if compress {
			dst = append(dst, perStored[i]...)
		} else {
			dst = append(dst, raw...)
		}
	}
	return dst, nil
}

// deflate compresses p with the builder's pooled flate writer. The
// returned slice is valid until the next deflate call.
func (b *RecordBuilder) deflate(p []byte) ([]byte, error) {
	b.cbuf.Reset()
	if b.fw == nil {
		fw, err := flate.NewWriter(&b.cbuf, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		b.fw = fw
	} else {
		b.fw.Reset(&b.cbuf)
	}
	if _, err := b.fw.Write(p); err != nil {
		return nil, err
	}
	if err := b.fw.Close(); err != nil {
		return nil, err
	}
	return b.cbuf.Bytes(), nil
}
