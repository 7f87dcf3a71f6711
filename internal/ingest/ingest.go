// Package ingest is the shared front door for workflow inputs: it
// sniffs a stream's format (Pegasus DAX XML, WfCommons WfFormat JSON,
// or this module's native workflow JSON) and dispatches to the
// matching streaming reader through one buffered io.Reader path — no
// caller ever slurps a whole file into memory to decide what it is.
package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"medcc/internal/dax"
	"medcc/internal/encoding"
	"medcc/internal/wfcommons"
	"medcc/internal/workflow"
)

// Typed sniffing errors. Servers branch on these with errors.Is to map
// malformed inputs onto precise client-facing failures instead of one
// generic "bad input"; every Detect failure wraps exactly one of them.
var (
	// ErrEmpty marks an input that is empty (or all whitespace/BOM).
	ErrEmpty = errors.New("ingest: empty input")
	// ErrTruncatedMagic marks an input that is a strict prefix of the
	// binary container magic — a container cut off inside its header.
	ErrTruncatedMagic = errors.New("ingest: truncated container magic")
	// ErrUnknownFormat marks an input that is neither XML, JSON, nor a
	// binary container.
	ErrUnknownFormat = errors.New("ingest: unrecognized input format")
	// ErrAmbiguousJSON marks JSON that matches no known workflow
	// dialect (neither native "modules" nor WfCommons "workflow").
	ErrAmbiguousJSON = errors.New("ingest: JSON matches no known workflow dialect")
	// ErrNoWorkflowChunk marks a binary-container record that carries
	// no workflow chunk (wrong chunk types for a workflow input).
	ErrNoWorkflowChunk = errors.New("ingest: container record has no workflow chunk")
)

// Format identifies a detected input format.
type Format int

const (
	// FormatUnknown is returned with an error when detection fails.
	FormatUnknown Format = iota
	// FormatDAX is Pegasus DAX XML.
	FormatDAX
	// FormatWfCommons is WfCommons WfFormat JSON.
	FormatWfCommons
	// FormatWorkflowJSON is this module's native workflow JSON.
	FormatWorkflowJSON
	// FormatContainer is this module's binary container ("MEDC" magic,
	// package encoding) — a single-instance file or a corpus stream.
	FormatContainer
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatDAX:
		return "dax"
	case FormatWfCommons:
		return "wfcommons"
	case FormatWorkflowJSON:
		return "workflow-json"
	case FormatContainer:
		return "container"
	}
	return "unknown"
}

// Options control the runtime/data-size mapping for converted formats;
// semantics match packages dax and wfcommons.
type Options struct {
	ReferencePower float64
	DataUnit       float64
	InferEdges     bool
}

// sniffWindow is how far Detect peeks. Every supported format reveals
// itself within the first few hundred bytes (the XML root element or
// the leading JSON keys); 32 KB leaves lavish margin for metadata
// preambles in WfCommons files.
const sniffWindow = 1 << 15

// leadCutset is what Detect skips before classifying: whitespace plus
// the bytes of a UTF-8 BOM.
const leadCutset = " \t\r\n\xef\xbb\xbf"

// Detect sniffs the stream's format without consuming it. The reader
// must be the same *bufio.Reader later handed to the parser.
func Detect(br *bufio.Reader) (Format, error) {
	head, err := br.Peek(sniffWindow)
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return FormatUnknown, err
	}
	trimmed := bytes.TrimLeft(head, leadCutset)
	if len(trimmed) == 0 {
		return FormatUnknown, ErrEmpty
	}
	if bytes.HasPrefix(trimmed, []byte(encoding.Magic)) {
		return FormatContainer, nil
	}
	if bytes.HasPrefix([]byte(encoding.Magic), trimmed) {
		// Strict prefix of "MEDC": a container whose stream ended
		// inside the magic, not an unrecognized format.
		return FormatUnknown, fmt.Errorf("%w: got %q of %q", ErrTruncatedMagic, trimmed, encoding.Magic)
	}
	if trimmed[0] == '<' {
		return FormatDAX, nil
	}
	if trimmed[0] != '{' {
		return FormatUnknown, fmt.Errorf("%w: input starts with %q, not XML, JSON, or %q", ErrUnknownFormat, trimmed[0], encoding.Magic)
	}
	// Both JSON dialects: the native format leads with "modules", the
	// WfFormat with "workflow" (or schema metadata before it). Pick by
	// first appearance inside the sniff window.
	mi := bytes.Index(trimmed, []byte(`"modules"`))
	wi := bytes.Index(trimmed, []byte(`"workflow"`))
	switch {
	case mi >= 0 && (wi < 0 || mi < wi):
		return FormatWorkflowJSON, nil
	case wi >= 0:
		return FormatWfCommons, nil
	case bytes.Contains(trimmed, []byte(`"schemaVersion"`)):
		return FormatWfCommons, nil
	}
	return FormatUnknown, fmt.Errorf("%w: neither %q nor %q in the first %d bytes", ErrAmbiguousJSON, "modules", "workflow", sniffWindow)
}

// SkipLead consumes the leading whitespace/BOM bytes Detect ignored, so
// the parser sees the stream from its first significant byte. The JSON
// decoders in particular reject a UTF-8 BOM that sniffing tolerated.
func SkipLead(br *bufio.Reader) error {
	for {
		b, err := br.Peek(1)
		if err != nil || bytes.IndexByte([]byte(leadCutset), b[0]) < 0 {
			return err
		}
		if _, err := br.Discard(1); err != nil {
			return err
		}
	}
}

// Workflow reads one workflow from r, detecting the format and parsing
// through the matching streaming reader. The returned IDs are task IDs
// in module-index order for converted formats, nil for native JSON.
func Workflow(r io.Reader, opts Options) (*workflow.Workflow, []string, Format, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	f, err := Detect(br)
	if err != nil {
		return nil, nil, f, err
	}
	if err := SkipLead(br); err != nil {
		return nil, nil, f, fmt.Errorf("ingest: %w", err)
	}
	switch f {
	case FormatContainer:
		w, err := containerWorkflow(br)
		return w, nil, f, err
	case FormatDAX:
		w, ids, err := dax.Parse(br, dax.Options{
			ReferencePower: opts.ReferencePower, DataUnit: opts.DataUnit, InferEdges: opts.InferEdges})
		return w, ids, f, err
	case FormatWfCommons:
		w, ids, err := wfcommons.Parse(br, wfcommons.Options{
			ReferencePower: opts.ReferencePower, DataUnit: opts.DataUnit})
		return w, ids, f, err
	default:
		w := workflow.New()
		if err := json.NewDecoder(br).Decode(w); err != nil {
			return nil, nil, f, fmt.Errorf("ingest: workflow JSON: %w", err)
		}
		return w, nil, f, nil
	}
}

// containerWorkflow decodes the first record of a binary container into
// a fresh workflow. A record without a workflow chunk — say, an
// instance-info-only container handed to a workflow entry point — yields
// ErrNoWorkflowChunk naming the chunk types actually present.
func containerWorkflow(br *bufio.Reader) (*workflow.Workflow, error) {
	cr, err := encoding.NewCorpusReader(br)
	if err != nil {
		return nil, err
	}
	rec, _, _, err := cr.NextRaw()
	if err == io.EOF {
		return nil, fmt.Errorf("%w: container has no records", ErrNoWorkflowChunk)
	}
	if err != nil {
		return nil, err
	}
	if rec.Find(encoding.ChunkWorkflow) < 0 {
		return nil, fmt.Errorf("%w: record 0 carries %s", ErrNoWorkflowChunk, chunkTypes(rec))
	}
	w := workflow.New()
	var dec encoding.Decoder
	if err := dec.WorkflowInto(rec, rec.Find(encoding.ChunkWorkflow), w); err != nil {
		return nil, err
	}
	return w, nil
}

// chunkTypes renders a record's chunk-type list for error messages.
func chunkTypes(rec encoding.Record) string {
	if rec.NumChunks() == 0 {
		return "no chunks"
	}
	var b bytes.Buffer
	for i := 0; i < rec.NumChunks(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v", rec.Type(i))
	}
	return b.String()
}

// File opens path and reads the workflow it contains via Workflow.
func File(path string, opts Options) (*workflow.Workflow, []string, Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, FormatUnknown, err
	}
	defer f.Close()
	return Workflow(bufio.NewReaderSize(f, 1<<16), opts)
}

// JSONFile streams one JSON value out of a file — the bounded-memory
// replacement for the os.ReadFile + Unmarshal idiom.
func JSONFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReaderSize(f, 1<<16))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
