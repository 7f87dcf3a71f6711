package exper

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"medcc/internal/encoding"
	"medcc/internal/gen"
)

// TestTableIVCorpusDifferential pins the corpus contract: running Table
// IV from a frozen instance corpus must reproduce the regenerate-per-run
// rows bit-for-bit, per float, including the per-level series.
func TestTableIVCorpusDifferential(t *testing.T) {
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		n, err := WriteTableIVCorpus(&buf, DefaultSeed, compress)
		if err != nil {
			t.Fatal(err)
		}
		if n != 20 {
			t.Fatalf("wrote %d records", n)
		}
		fromCorpus, err := TableIVFromCorpus(&buf, 4)
		if err != nil {
			t.Fatal(err)
		}
		regen, err := TableIV(DefaultSeed, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(fromCorpus) != len(regen) {
			t.Fatalf("row count %d vs %d", len(fromCorpus), len(regen))
		}
		for i := range regen {
			a, b := fromCorpus[i], regen[i]
			if a.Index != b.Index || a.Size != b.Size ||
				a.CG != b.CG || a.GAIN != b.GAIN || a.GAINWRF != b.GAINWRF ||
				a.ImpPct != b.ImpPct || a.ImpWRFPct != b.ImpWRFPct || a.Ratio != b.Ratio {
				t.Fatalf("compress=%v row %d differs:\ncorpus %+v\nregen  %+v", compress, i, a, b)
			}
			for k := range b.PerLvl {
				if a.PerLvl[k] != b.PerLvl[k] {
					t.Fatalf("compress=%v row %d level %d: %v vs %v", compress, i, k, a.PerLvl[k], b.PerLvl[k])
				}
			}
		}
	}
}

// TestCampaignCorpusDifferential pins the Figs. 9-11 path: corpus-backed
// cells — and hence the Fig9/Fig10 aggregations built from them — must
// be bit-identical to Campaign's.
func TestCampaignCorpusDifferential(t *testing.T) {
	const instances, levels = 2, 3
	var buf bytes.Buffer
	n, err := WriteCampaignCorpus(&buf, DefaultSeed, instances, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20*instances {
		t.Fatalf("wrote %d records", n)
	}
	fromCorpus, err := CampaignFromCorpus(&buf, instances, levels)
	if err != nil {
		t.Fatal(err)
	}
	regen, err := Campaign(DefaultSeed, instances, levels)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCorpus) != len(regen) {
		t.Fatalf("cell count %d vs %d", len(fromCorpus), len(regen))
	}
	for i := range regen {
		if fromCorpus[i] != regen[i] {
			t.Fatalf("cell %d differs: corpus %+v regen %+v", i, fromCorpus[i], regen[i])
		}
	}
	f9a, f9b := Fig9(fromCorpus), Fig9(regen)
	for k, v := range f9b {
		if f9a[k] != v {
			t.Fatalf("Fig9 size %d: %v vs %v", k, f9a[k], v)
		}
	}
	f10a, f10b := Fig10(fromCorpus), Fig10(regen)
	for k, v := range f10b {
		if f10a[k] != v {
			t.Fatalf("Fig10 level %d: %v vs %v", k, f10a[k], v)
		}
	}
}

// TestValidationCorpusDifferential pins the corpus feed into the
// simulator validation: SimValidationFromCorpus must reproduce
// SimValidation's rows bit-for-bit.
func TestValidationCorpusDifferential(t *testing.T) {
	size := gen.ProblemSize{M: 12, E: 25, N: 4}
	const instances = 6
	var buf bytes.Buffer
	if _, err := WriteValidationCorpus(&buf, DefaultSeed, size, instances, false); err != nil {
		t.Fatal(err)
	}
	fromCorpus, err := SimValidationFromCorpus(&buf, DefaultSeed, size, instances)
	if err != nil {
		t.Fatal(err)
	}
	regen, err := SimValidation(DefaultSeed, size, instances)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCorpus) != len(regen) {
		t.Fatalf("row count %d vs %d", len(fromCorpus), len(regen))
	}
	for i := range regen {
		if fromCorpus[i] != regen[i] {
			t.Fatalf("row %d differs: corpus %+v regen %+v", i, fromCorpus[i], regen[i])
		}
	}
}

// TestCorpusShapeMismatch ensures the runners reject corpora written for
// a different experiment shape instead of silently computing on them.
func TestCorpusShapeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteCampaignCorpus(&buf, DefaultSeed, 2, false); err != nil {
		t.Fatal(err)
	}
	// A campaign corpus with 2 instances/size has 40 records; Table IV
	// consumes 20, so either the size check or the drain check must trip.
	if _, err := TableIVFromCorpus(&buf, 2); err == nil {
		t.Fatal("TableIVFromCorpus accepted a campaign corpus")
	}

	buf.Reset()
	if _, err := WriteTableIVCorpus(&buf, DefaultSeed, false); err != nil {
		t.Fatal(err)
	}
	// 20 records cannot satisfy a 2-instance campaign's 40.
	if _, err := CampaignFromCorpus(&buf, 2, 2); err == nil {
		t.Fatal("CampaignFromCorpus accepted a Table IV corpus")
	}

	// The validation run checks both the record count and each record's
	// problem size.
	size := gen.ProblemSize{M: 12, E: 25, N: 4}
	buf.Reset()
	if _, err := WriteValidationCorpus(&buf, DefaultSeed, size, 4, false); err != nil {
		t.Fatal(err)
	}
	if _, err := SimValidationFromCorpus(&buf, DefaultSeed, size, 3); err == nil {
		t.Fatal("SimValidationFromCorpus accepted a corpus with a trailing record")
	}
	buf.Reset()
	if _, err := WriteValidationCorpus(&buf, DefaultSeed, size, 3, false); err != nil {
		t.Fatal(err)
	}
	if _, err := SimValidationFromCorpus(&buf, DefaultSeed, gen.ProblemSize{M: 10, E: 17, N: 4}, 3); err == nil {
		t.Fatal("SimValidationFromCorpus accepted records of the wrong size")
	}
}

// TestCorpusErrorContractNamesLowestRecord pins the corpus feeder's error
// contract: when records 3 and 7 both carry the wrong problem size, the
// run names record 3, whichever worker reaches either record first.
func TestCorpusErrorContractNamesLowestRecord(t *testing.T) {
	size, wrong := gen.ProblemSize{M: 12, E: 25, N: 4}, gen.ProblemSize{M: 10, E: 17, N: 4}
	const instances = 10
	var buf bytes.Buffer
	cw, err := encoding.NewCorpusWriter(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	var b gen.Builder
	for k := 0; k < instances; k++ {
		s := size
		if k == 3 || k == 7 {
			s = wrong
		}
		wf, cat, err := b.Instance(newRNG(DefaultSeed, k), s)
		if err != nil {
			t.Fatal(err)
		}
		info := encoding.InstanceInfo{
			Seed: DefaultSeed, Index: int64(k), Kind: encoding.KindGenerated,
			M: uint32(s.M), E: uint32(s.E), N: uint32(s.N),
		}
		if err := cw.WriteInstance(wf, cat, info); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err = SimValidationFromCorpus(&buf, DefaultSeed, size, instances)
	if err == nil || !strings.Contains(err.Error(), "corpus record 3 ") {
		t.Fatalf("err = %v, want one naming corpus record 3", err)
	}
}

// TestCorpusTruncated ensures mid-stream corruption surfaces as an error
// from the parallel feed path rather than a hang or partial result.
func TestCorpusTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteTableIVCorpus(&buf, DefaultSeed, false); err != nil {
		t.Fatal(err)
	}
	cut := buf.Len() / 2
	_, err := TableIVFromCorpus(io.LimitReader(bytes.NewReader(buf.Bytes()), int64(cut)), 2)
	if err == nil {
		t.Fatal("TableIVFromCorpus accepted a truncated corpus")
	}
}
