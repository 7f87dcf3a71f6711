package encoding

import (
	"bytes"
	"testing"

	"medcc/internal/cloud"
	"medcc/internal/workflow"
)

// FuzzDecodeCorpus drives the full corpus read path — header, record
// framing, catalog resolution, workflow decode — over arbitrary bytes.
// The format contract under test: corrupt, truncated, or hostile input
// must surface as an error, never a panic or an out-of-bounds read.
// Seeds are golden encodings (valid files), their truncations, and a
// few targeted corruptions, so the fuzzer starts at the deep end of the
// decoder instead of spending its budget on the magic check.
func FuzzDecodeCorpus(f *testing.F) {
	for si := 0; si < 2; si++ {
		for _, compress := range []bool{false, true} {
			data, _, _ := goldenRecord(f, si, compress)
			f.Add(data)
			f.Add(data[:len(data)-len(data)/3]) // mid-record truncation
			f.Add(data[:headerLen+2])           // mid-length truncation
			flip := bytes.Clone(data)
			flip[len(flip)/2] ^= 0x40 // payload/table corruption
			f.Add(flip)
			short := bytes.Clone(data)
			short[headerLen] ^= 0xff // bodyLen corruption
			f.Add(short)
		}
	}
	f.Add(AppendHeader(nil, StreamRecordCount))
	f.Add([]byte("MEDC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cr, err := NewCorpusReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		wf := workflow.New()
		for i := 0; i < 64; i++ {
			if _, _, err := cr.Next(wf); err != nil {
				return // io.EOF or a decode error — both fine, panics are not
			}
		}
	})
}

// FuzzDecodeRecord drives every typed chunk decoder over arbitrary
// record bodies: whatever the chunk table claims, each *Into method must
// either fill its destination or error — never panic, never read outside
// the body, never trust a length field it has not checked against the
// payload.
func FuzzDecodeRecord(f *testing.F) {
	for si := 0; si < 2; si++ {
		for _, compress := range []bool{false, true} {
			data, _, _ := goldenRecord(f, si, compress)
			rec := parseOne(f, data)
			f.Add(bytes.Clone(rec.Body()))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec, err := ParseRecord(body)
		if err != nil {
			return
		}
		var (
			d   Decoder
			wf  = workflow.New()
			cat cloud.Catalog
		)
		for i := 0; i < rec.NumChunks(); i++ {
			switch rec.Type(i) {
			case ChunkWorkflow:
				if err := d.WorkflowInto(rec, i, wf); err == nil {
					// A decode the validator accepted must be re-encodable.
					if _, err := AppendWorkflow(nil, wf); err != nil {
						t.Fatalf("decoded workflow does not re-encode: %v", err)
					}
				}
			case ChunkCatalog:
				cat, _ = d.CatalogInto(rec, i, cat)
			case ChunkInstanceInfo:
				_, _ = d.InstanceInfo(rec, i)
			case ChunkCatalogRef:
				_, _ = d.CatalogRef(rec, i)
			default:
				_, _ = d.Payload(rec, i)
			}
		}
	})
}
