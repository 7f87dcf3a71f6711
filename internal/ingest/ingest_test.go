package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"medcc/internal/encoding"
	"medcc/internal/workflow"
)

func detect(t *testing.T, input string) (Format, error) {
	t.Helper()
	return Detect(bufio.NewReader(strings.NewReader(input)))
}

func TestDetect(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  Format
	}{
		{"dax", `<?xml version="1.0"?><adag name="x"/>`, FormatDAX},
		{"dax-bom-ws", "\xef\xbb\xbf  <adag/>", FormatDAX},
		{"native", `{"modules": [], "edges": []}`, FormatWorkflowJSON},
		{"wfcommons", `{"name": "x", "workflow": {"jobs": []}}`, FormatWfCommons},
		{"wfcommons-schema", `{"schemaVersion": "1.4"}`, FormatWfCommons},
		{"both-keys-native-first", `{"modules": [], "workflow": 1}`, FormatWorkflowJSON},
		{"both-keys-wf-first", `{"workflow": {"tasks": []}, "modules": 1}`, FormatWfCommons},
	}
	for _, tc := range cases {
		got, err := detect(t, tc.input)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("%s: detected %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDetectErrors(t *testing.T) {
	for _, input := range []string{"", "   \n\t", "plain text", `{"neither": 1}`} {
		if f, err := detect(t, input); err == nil {
			t.Fatalf("input %q detected as %v, want error", input, f)
		}
	}
}

// TestDetectTypedErrors pins the error taxonomy the server relies on:
// each malformed-input class maps to its own sentinel, matchable with
// errors.Is, never a generic error.
func TestDetectTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  error
	}{
		{"empty", "", ErrEmpty},
		{"whitespace-only", "  \n\t", ErrEmpty},
		{"bom-only", "\xef\xbb\xbf", ErrEmpty},
		{"truncated-magic-1", "M", ErrTruncatedMagic},
		{"truncated-magic-3", "MED", ErrTruncatedMagic},
		{"not-a-format", "plain text", ErrUnknownFormat},
		{"binary-junk", "\x00\x01\x02", ErrUnknownFormat},
		{"json-no-dialect", `{"neither": 1}`, ErrAmbiguousJSON},
	}
	for _, tc := range cases {
		f, err := detect(t, tc.input)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Detect = (%v, %v), want errors.Is(err, %v)", tc.name, f, err, tc.want)
		}
	}
	// "MEDCAL" shares a 4-byte prefix with the magic and must detect as
	// a container (header validation rejects it later, with context).
	if f, err := detect(t, "MEDCAL"); err != nil || f != FormatContainer {
		t.Fatalf("MEDC-prefixed input: Detect = (%v, %v), want container", f, err)
	}
}

// TestWorkflowJSONWithBOM checks the fix for the sniff/parse asymmetry:
// Detect tolerated a UTF-8 BOM but the JSON decoder then choked on it.
func TestWorkflowJSONWithBOM(t *testing.T) {
	for name, input := range map[string]string{
		"native":    "\xef\xbb\xbf" + `{"modules": [{"name": "a", "workload": 3}], "edges": []}`,
		"wfcommons": "\xef\xbb\xbf" + `{"name": "t", "workflow": {"jobs": [{"id": "a", "runtime": 3}]}}`,
	} {
		w, _, _, err := Workflow(strings.NewReader(input), Options{ReferencePower: 1})
		if err != nil {
			t.Fatalf("%s with BOM: %v", name, err)
		}
		if w.NumModules() != 1 {
			t.Fatalf("%s with BOM: %d modules, want 1", name, w.NumModules())
		}
	}
}

// TestWorkflowContainer round-trips a workflow through the binary
// container and back in via the sniffing front door.
func TestWorkflowContainer(t *testing.T) {
	src, _ := workflow.PaperExample()
	var rb encoding.RecordBuilder
	rb.Begin()
	if err := rb.Workflow(src); err != nil {
		t.Fatal(err)
	}
	buf := encoding.AppendHeader(nil, 1)
	buf, err := rb.AppendRecord(buf, false)
	if err != nil {
		t.Fatal(err)
	}
	w, _, f, err := Workflow(bytes.NewReader(buf), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f != FormatContainer {
		t.Fatalf("format = %v, want container", f)
	}
	if w.NumModules() != src.NumModules() || w.NumDependencies() != src.NumDependencies() {
		t.Fatalf("container round-trip: %d modules/%d edges, want %d/%d",
			w.NumModules(), w.NumDependencies(), src.NumModules(), src.NumDependencies())
	}
}

// TestWorkflowContainerWrongChunk checks that a well-formed container
// whose first record has no workflow chunk yields the typed sentinel
// (naming what the record does carry), not a generic decode error.
func TestWorkflowContainerWrongChunk(t *testing.T) {
	var rb encoding.RecordBuilder
	rb.Begin()
	rb.InstanceInfo(encoding.InstanceInfo{Seed: 1})
	buf := encoding.AppendHeader(nil, 1)
	buf, err := rb.AppendRecord(buf, false)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Workflow(bytes.NewReader(buf), Options{})
	if !errors.Is(err, ErrNoWorkflowChunk) {
		t.Fatalf("instance-info-only container: err = %v, want ErrNoWorkflowChunk", err)
	}
	if err == nil || !strings.Contains(err.Error(), "instance-info") {
		t.Fatalf("error should name the chunk types present, got %v", err)
	}

	// Empty container: records exhausted before any workflow.
	empty := encoding.AppendHeader(nil, 0)
	_, _, _, err = Workflow(bytes.NewReader(empty), Options{})
	if !errors.Is(err, ErrNoWorkflowChunk) {
		t.Fatalf("empty container: err = %v, want ErrNoWorkflowChunk", err)
	}
}

// TestWorkflowDispatch checks that each detected format reaches its
// parser and yields the same logical workflow.
func TestWorkflowDispatch(t *testing.T) {
	inputs := map[string]string{
		"dax": `<?xml version="1.0"?>
<adag name="t">
  <job id="a" runtime="3"/>
  <job id="b" runtime="5"/>
  <child ref="b"><parent ref="a"/></child>
</adag>`,
		"wfcommons": `{"name": "t", "workflow": {"jobs": [
  {"id": "a", "runtime": 3, "children": ["b"]},
  {"id": "b", "runtime": 5, "parents": ["a"]}
]}}`,
		"native": `{"modules": [{"name": "a", "workload": 3}, {"name": "b", "workload": 5}],
  "edges": [{"from": 0, "to": 1, "data_size": 0}]}`,
	}
	for name, input := range inputs {
		w, _, _, err := Workflow(strings.NewReader(input), Options{ReferencePower: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.NumModules() != 2 || w.NumDependencies() != 1 {
			t.Fatalf("%s: %d modules, %d edges", name, w.NumModules(), w.NumDependencies())
		}
	}
}
