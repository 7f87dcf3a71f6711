package encoding

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"medcc/internal/cloud"
	"medcc/internal/workflow"
)

// maxInflateRatio bounds how much a DEFLATE chunk may claim to expand.
// The format's worst-case expansion is ~1032:1; a rawLen beyond that is
// a corrupt (or adversarial) table entry and is rejected before any
// buffer is sized from it.
const maxInflateRatio = 1032

// Decoder is the pooled decode scratch: a string intern table (module
// and VM-type names decode to one shared string value per distinct
// name), a decompression buffer, and a reusable flate reader. A Decoder
// is worker-private; decoding a homogeneous stream through one Decoder
// into pooled destinations reaches zero allocations per record.
//
// medcc:scratch
type Decoder struct {
	strs map[string]string
	raw  []byte // decompressed-payload scratch, valid until the next Payload call
	src  bytes.Reader
	fr   io.ReadCloser
}

// intern returns the canonical string for b, converting only the first
// time a distinct name is seen.
//
// medcc:allocfree
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok { // medcc:lint-ignore allocfree — map lookup with string(b) key does not allocate
		return s
	}
	return d.internMiss(b)
}

// internMiss admits a newly seen name into the intern table.
//
// medcc:coldpath — runs once per distinct string across a stream.
func (d *Decoder) internMiss(b []byte) string {
	if d.strs == nil {
		d.strs = make(map[string]string, 64)
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// Payload returns chunk i's decoded payload: CRC-verified, and inflated
// through the decoder's scratch when the chunk is compressed. The
// returned slice is either a view into the record's buffer or the
// decoder's decompression scratch — valid until the next Payload call
// on this decoder or the record buffer is recycled.
//
// medcc:allocfree
func (d *Decoder) Payload(r Record, i int) ([]byte, error) {
	flags, stored, rawLen, crc := r.entry(i)
	if c := crcOf(stored); c != crc {
		return nil, fmt.Errorf("encoding: chunk %d (%v) checksum mismatch: %#x != %#x", i, r.Type(i), c, crc)
	}
	if flags&chunkFlagDeflate == 0 {
		return stored, nil
	}
	return d.inflate(stored, rawLen, i)
}

// inflate decompresses a DEFLATE chunk into the decoder's scratch.
//
// medcc:coldpath — compressed corpora trade decode time for disk; the
// allocation-free contract is stated for uncompressed streams.
func (d *Decoder) inflate(stored []byte, rawLen uint32, i int) ([]byte, error) {
	if uint64(rawLen) > uint64(len(stored))*maxInflateRatio+64 {
		return nil, fmt.Errorf("encoding: chunk %d claims %d raw bytes from %d stored — implausible expansion", i, rawLen, len(stored))
	}
	d.src.Reset(stored)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.src)
	} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return nil, err
	}
	if cap(d.raw) < int(rawLen) {
		d.raw = make([]byte, rawLen)
	} else {
		d.raw = d.raw[:rawLen]
	}
	if _, err := io.ReadFull(d.fr, d.raw); err != nil {
		return nil, fmt.Errorf("encoding: chunk %d inflate: %w", i, err)
	}
	var probe [1]byte
	if n, _ := d.fr.Read(probe[:]); n != 0 {
		return nil, fmt.Errorf("encoding: chunk %d inflates past its declared %d raw bytes", i, rawLen)
	}
	return d.raw, nil
}

// payloadCursor walks a payload left to right with exact-length
// accounting; all reads were pre-validated by the caller computing the
// expected total, so the accessors skip per-read bounds checks.
type payloadCursor struct {
	p   []byte
	off int
}

// medcc:allocfree
func (c *payloadCursor) u32() uint32 {
	v := binary.LittleEndian.Uint32(c.p[c.off:])
	c.off += 4
	return v
}

// medcc:allocfree
func (c *payloadCursor) u64() uint64 {
	v := binary.LittleEndian.Uint64(c.p[c.off:])
	c.off += 8
	return v
}

// medcc:allocfree
func (c *payloadCursor) f64() float64 {
	return lef64(c.u64())
}

// WorkflowInto decodes chunk i (a ChunkWorkflow) into dst, reusing its
// graph/module/edge storage via Reset. The decoded workflow is NOT
// validated for acyclicity — Validate (or BuildMatrices, which calls
// it) is the place that pays for the topological check.
//
// medcc:allocfree
func (d *Decoder) WorkflowInto(r Record, i int, dst *workflow.Workflow) error {
	p, err := d.Payload(r, i)
	if err != nil {
		return err
	}
	if len(p) < 8 {
		return fmt.Errorf("encoding: workflow payload truncated at %d bytes", len(p))
	}
	m := uint64(binary.LittleEndian.Uint32(p))
	e := uint64(binary.LittleEndian.Uint32(p[4:]))
	// Fixed-width region: header + per-module f64+f64+u8+u16 + per-edge
	// u32+u32+f64. Validated with u64 arithmetic before any loop runs.
	fixed := 8 + m*(8+8+1+2) + e*(4+4+8)
	if fixed > uint64(len(p)) {
		return fmt.Errorf("encoding: workflow payload %d bytes short of %d modules / %d edges", len(p), m, e)
	}
	nameLenOff := 8 + m*(8+8+1)
	names := uint64(0)
	for j := uint64(0); j < m; j++ {
		names += uint64(binary.LittleEndian.Uint16(p[nameLenOff+2*j:]))
	}
	if fixed+names != uint64(len(p)) {
		return fmt.Errorf("encoding: workflow payload is %d bytes, layout needs %d", len(p), fixed+names)
	}

	dst.Reset()
	var c payloadCursor
	c.p = p
	c.off = 8
	wlOff := c.off
	ftOff := wlOff + int(m)*8
	fxOff := ftOff + int(m)*8
	nameOff := int(fixed)
	for j := 0; j < int(m); j++ {
		nl := int(binary.LittleEndian.Uint16(p[int(nameLenOff)+2*j:]))
		dst.AddModule(workflow.Module{
			Name:      d.intern(p[nameOff : nameOff+nl]),
			Workload:  lef64(binary.LittleEndian.Uint64(p[wlOff+8*j:])),
			Fixed:     p[fxOff+j] != 0,
			FixedTime: lef64(binary.LittleEndian.Uint64(p[ftOff+8*j:])),
		})
		nameOff += nl
	}
	fromOff := fxOff + int(m) + int(m)*2
	toOff := fromOff + int(e)*4
	dsOff := toOff + int(e)*4
	for j := 0; j < int(e); j++ {
		u := int(int32(binary.LittleEndian.Uint32(p[fromOff+4*j:])))
		v := int(int32(binary.LittleEndian.Uint32(p[toOff+4*j:])))
		ds := lef64(binary.LittleEndian.Uint64(p[dsOff+8*j:]))
		if err := dst.AddDependency(u, v, ds); err != nil {
			return fmt.Errorf("encoding: workflow edge %d: %w", j, err)
		}
	}
	return nil
}

// CatalogInto decodes chunk i (a ChunkCatalog) into dst's storage and
// returns the refilled catalog.
//
// medcc:allocfree
func (d *Decoder) CatalogInto(r Record, i int, dst cloud.Catalog) (cloud.Catalog, error) {
	p, err := d.Payload(r, i)
	if err != nil {
		return dst, err
	}
	if len(p) < 4 {
		return dst, fmt.Errorf("encoding: catalog payload truncated at %d bytes", len(p))
	}
	n := uint64(binary.LittleEndian.Uint32(p))
	fixed := 4 + n*(8+8+8+8+8+2)
	if fixed > uint64(len(p)) {
		return dst, fmt.Errorf("encoding: catalog payload %d bytes short of %d types", len(p), n)
	}
	nameLenOff := 4 + n*40
	names := uint64(0)
	for j := uint64(0); j < n; j++ {
		names += uint64(binary.LittleEndian.Uint16(p[nameLenOff+2*j:]))
	}
	if fixed+names != uint64(len(p)) {
		return dst, fmt.Errorf("encoding: catalog payload is %d bytes, layout needs %d", len(p), fixed+names)
	}
	dst = dst[:0]
	nameOff := int(fixed)
	for j := 0; j < int(n); j++ {
		nl := int(binary.LittleEndian.Uint16(p[int(nameLenOff)+2*j:]))
		dst = append(dst, cloud.VMType{
			Name:   d.intern(p[nameOff : nameOff+nl]),
			Power:  lef64(binary.LittleEndian.Uint64(p[4+8*j:])),
			Rate:   lef64(binary.LittleEndian.Uint64(p[int(4+n*8)+8*j:])),
			CPUGHz: lef64(binary.LittleEndian.Uint64(p[int(4+n*16)+8*j:])),
			RAMKB:  int(int64(binary.LittleEndian.Uint64(p[int(4+n*24)+8*j:]))),
			DiskGB: lef64(binary.LittleEndian.Uint64(p[int(4+n*32)+8*j:])),
		})
		nameOff += nl
	}
	return dst, nil
}

// InstanceInfo decodes chunk i (a ChunkInstanceInfo).
//
// medcc:allocfree
func (d *Decoder) InstanceInfo(r Record, i int) (InstanceInfo, error) {
	p, err := d.Payload(r, i)
	if err != nil {
		return InstanceInfo{}, err
	}
	if len(p) != instanceInfoLen {
		return InstanceInfo{}, fmt.Errorf("encoding: instance-info payload is %d bytes, want %d", len(p), instanceInfoLen)
	}
	var c payloadCursor
	c.p = p
	return InstanceInfo{
		Seed:  int64(c.u64()),
		Index: int64(c.u64()),
		Kind:  InstanceKind(c.u32()),
		M:     c.u32(),
		E:     c.u32(),
		N:     c.u32(),
		CMin:  c.f64(),
		CMax:  c.f64(),
	}, nil
}

// CatalogRef decodes chunk i (a ChunkCatalogRef): the zero-based index
// of a catalog emitted earlier in the stream.
//
// medcc:allocfree
func (d *Decoder) CatalogRef(r Record, i int) (int, error) {
	p, err := d.Payload(r, i)
	if err != nil {
		return 0, err
	}
	if len(p) != 4 {
		return 0, fmt.Errorf("encoding: catalog-ref payload is %d bytes, want 4", len(p))
	}
	return int(binary.LittleEndian.Uint32(p)), nil
}

// lef64 converts stored IEEE-754 bits back to a float64.
//
// medcc:allocfree
func lef64(bits uint64) float64 {
	return math.Float64frombits(bits)
}
