// Package encoding is the module's compact binary container: a chunked,
// versioned format for workflows, VM catalogs, schedules, and instance
// corpora. It exists because JSON/DAX/WfCommons
// parsing dominates everything else at campaign scale — the schedulers
// and the simulator run at 0 allocs/op, so regenerating or re-parsing
// 10^5 instances per campaign is the remaining front-of-pipeline cost.
//
// # Layout
//
// Every field is little-endian and fixed-width; float64 values are
// stored as their IEEE-754 bit patterns, so encode/decode round-trips
// are bit-exact.
//
//	file   := header record*
//	header := magic "MEDC" | version u16 | flags u16 |
//	          recordCount u32 (0xFFFFFFFF = stream, read until EOF) |
//	          reserved u32 (must be 0)
//	record := bodyLen u32 | body
//	body   := chunkCount u32 | chunkTable | payload area
//	chunkTable entry (24 bytes):
//	          type u32 | flags u32 | offset u32 | storedLen u32 |
//	          rawLen u32 | crc32 u32
//
// Chunk offsets are relative to the start of the record body and must
// land entirely inside it; storedLen is the on-disk payload size and
// rawLen the decoded size (they differ only for compressed chunks,
// flag bit 0, DEFLATE). crc32 (IEEE) covers the stored payload bytes.
// Decoders validate magic, version, every table bound, and the CRC
// before touching a payload, and payload field counts against the
// payload length before materializing anything, so corrupt or
// truncated input produces an error — never a panic or an over-read.
//
// # Zero-copy decode contract
//
// Decoding reuses caller scratch throughout: a Decoder interns every
// string it has seen before (module and VM-type names decode to the
// same string value across instances, no per-record conversions), and
// the *Into methods rebuild pooled destinations in place (Workflow
// Reset/AddModule reuse, grown-once slices), so steady-state decode of
// a homogeneous stream performs zero allocations per record. Payload
// slices handed out by Record are views into the caller's buffer —
// nothing is copied until a value is written into a destination.
package encoding

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic opens every file written by this package.
const Magic = "MEDC"

// Version is the container format version this package writes. Readers
// reject files with a different major version rather than guessing:
// the format carries no in-band migration hints, so compatibility is
// strict by design (see DESIGN.md "Binary container format").
const Version = 1

// StreamRecordCount in a file header marks a streamed file: the record
// count was unknown at write time and readers consume records until EOF.
const StreamRecordCount = 0xFFFF_FFFF

// headerLen is the fixed file-header size in bytes.
const headerLen = 16

// chunkEntryLen is the size of one chunk-table entry in bytes.
const chunkEntryLen = 24

// ChunkType identifies a chunk's payload schema.
type ChunkType uint32

const (
	// ChunkWorkflow is a task graph: modules (workload, fixed flag,
	// fixed time, name) plus dependency edges with data sizes.
	ChunkWorkflow ChunkType = 1
	// ChunkCatalog is an ordered VM-type catalog.
	ChunkCatalog ChunkType = 2
	// ChunkSchedule is reserved for a module->VM-type mapping, and
	// ChunkTrace for a simulated run's trace. The package has no codec
	// for either; ParseRecord hands such a chunk out as an opaque
	// payload like any other, so the format version is unchanged.
	ChunkSchedule ChunkType = 3
	ChunkTrace    ChunkType = 4
	// ChunkInstanceInfo carries corpus bookkeeping: the generator seed
	// and index, the problem size, and the instance's budget range.
	ChunkInstanceInfo ChunkType = 5
	// ChunkCatalogRef references a catalog previously emitted in the
	// same stream, by zero-based order of appearance; corpus records
	// share catalogs through it instead of re-encoding them.
	ChunkCatalogRef ChunkType = 6
)

// chunkFlagDeflate marks a chunk whose stored payload is
// DEFLATE-compressed (compress/flate).
const chunkFlagDeflate = 1 << 0

// String names the chunk type in error messages.
func (t ChunkType) String() string {
	switch t {
	case ChunkWorkflow:
		return "workflow"
	case ChunkCatalog:
		return "catalog"
	case ChunkSchedule:
		return "schedule"
	case ChunkTrace:
		return "trace"
	case ChunkInstanceInfo:
		return "instance-info"
	case ChunkCatalogRef:
		return "catalog-ref"
	}
	return fmt.Sprintf("chunk(%d)", uint32(t))
}

// AppendHeader appends a file header to dst and returns it. Pass
// StreamRecordCount when the number of records is unknown at write time.
func AppendHeader(dst []byte, recordCount uint32) []byte {
	dst = append(dst, Magic...)
	dst = appendU16(dst, Version)
	dst = appendU16(dst, 0) // file flags, reserved in v1
	dst = appendU32(dst, recordCount)
	dst = appendU32(dst, 0) // reserved
	return dst
}

// ParseHeader validates a file header and returns the record count
// (StreamRecordCount for streamed files) and the header length in bytes.
func ParseHeader(data []byte) (recordCount uint32, n int, err error) {
	if len(data) < headerLen {
		return 0, 0, fmt.Errorf("encoding: truncated header: %d bytes", len(data))
	}
	if string(data[:4]) != Magic {
		return 0, 0, fmt.Errorf("encoding: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return 0, 0, fmt.Errorf("encoding: unsupported format version %d (have %d)", v, Version)
	}
	if f := binary.LittleEndian.Uint16(data[6:]); f != 0 {
		return 0, 0, fmt.Errorf("encoding: unsupported file flags %#x", f)
	}
	if r := binary.LittleEndian.Uint32(data[12:]); r != 0 {
		return 0, 0, fmt.Errorf("encoding: reserved header field is %#x, want 0", r)
	}
	return binary.LittleEndian.Uint32(data[8:]), headerLen, nil
}

// Record is a parsed, validated view of one record body: the chunk
// table plus payload bounds. It borrows the body slice — the view is
// valid only while the underlying buffer is.
type Record struct {
	body []byte
	n    int // chunk count
}

// ParseRecord validates the chunk table of a record body and returns a
// view over it. Every table entry's payload range is checked against
// the body, so a Record's payloads can be sliced without further bounds
// tests; CRCs are verified lazily per chunk by Decoder.Payload.
//
// medcc:allocfree
func ParseRecord(body []byte) (Record, error) {
	if len(body) < 4 {
		return Record{}, fmt.Errorf("encoding: record body truncated at %d bytes", len(body))
	}
	n := binary.LittleEndian.Uint32(body)
	tableEnd := uint64(4) + uint64(n)*chunkEntryLen
	if tableEnd > uint64(len(body)) {
		return Record{}, fmt.Errorf("encoding: chunk table (%d entries) exceeds record body (%d bytes)", n, len(body))
	}
	for i := uint64(0); i < uint64(n); i++ {
		e := body[4+i*chunkEntryLen:]
		typ := ChunkType(binary.LittleEndian.Uint32(e))
		off := uint64(binary.LittleEndian.Uint32(e[8:]))
		stored := uint64(binary.LittleEndian.Uint32(e[12:]))
		if off < tableEnd || off+stored > uint64(len(body)) {
			return Record{}, fmt.Errorf("encoding: chunk %d (%v) payload [%d,%d) outside record body [%d,%d)",
				i, typ, off, off+stored, tableEnd, len(body))
		}
		flags := binary.LittleEndian.Uint32(e[4:])
		if flags&^uint32(chunkFlagDeflate) != 0 {
			return Record{}, fmt.Errorf("encoding: chunk %d (%v) has unsupported flags %#x", i, typ, flags)
		}
		raw := binary.LittleEndian.Uint32(e[16:])
		if flags&chunkFlagDeflate == 0 && uint64(raw) != stored {
			return Record{}, fmt.Errorf("encoding: chunk %d (%v) raw length %d != stored length %d without compression", i, typ, raw, stored)
		}
	}
	return Record{body: body, n: int(n)}, nil
}

// NumChunks returns the number of chunks in the record.
func (r Record) NumChunks() int { return r.n }

// Type returns the type of chunk i.
//
// medcc:allocfree
func (r Record) Type(i int) ChunkType {
	return ChunkType(binary.LittleEndian.Uint32(r.body[4+i*chunkEntryLen:]))
}

// entry returns the parsed table entry of chunk i (bounds were
// validated by ParseRecord).
//
// medcc:allocfree
func (r Record) entry(i int) (flags uint32, stored []byte, rawLen uint32, crc uint32) {
	e := r.body[4+i*chunkEntryLen:]
	flags = binary.LittleEndian.Uint32(e[4:])
	off := binary.LittleEndian.Uint32(e[8:])
	n := binary.LittleEndian.Uint32(e[12:])
	rawLen = binary.LittleEndian.Uint32(e[16:])
	crc = binary.LittleEndian.Uint32(e[20:])
	return flags, r.body[off : uint64(off)+uint64(n)], rawLen, crc
}

// Find returns the index of the first chunk of the given type, or -1.
//
// medcc:allocfree
func (r Record) Find(t ChunkType) int {
	for i := 0; i < r.n; i++ {
		if r.Type(i) == t {
			return i
		}
	}
	return -1
}

// --- little-endian append/read helpers ---

// medcc:allocfree — all appends are self-appends into the caller's buffer.
func appendU16(dst []byte, v uint16) []byte {
	dst = append(dst, byte(v), byte(v>>8))
	return dst
}

// medcc:allocfree
func appendU32(dst []byte, v uint32) []byte {
	dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	return dst
}

// medcc:allocfree
func appendU64(dst []byte, v uint64) []byte {
	dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	return dst
}

// medcc:allocfree
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

// crcOf is the chunk checksum: CRC-32 (IEEE) over stored payload bytes.
//
// medcc:allocfree
func crcOf(p []byte) uint32 { return crc32.ChecksumIEEE(p) }
