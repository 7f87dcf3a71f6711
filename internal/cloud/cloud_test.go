package cloud

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestVMTypeExecTime(t *testing.T) {
	vt := VMType{Name: "VT1", Power: 3, Rate: 1}
	if got := vt.ExecTime(21); got != 7 {
		t.Fatalf("ExecTime(21) = %v, want 7", got)
	}
	if got := vt.ExecTime(0); got != 0 {
		t.Fatalf("ExecTime(0) = %v, want 0", got)
	}
}

func TestCatalogValidate(t *testing.T) {
	good := PaperExampleCatalog()
	if err := good.Validate(); err != nil {
		t.Fatalf("paper catalog invalid: %v", err)
	}
	cases := []struct {
		name string
		c    Catalog
	}{
		{"empty", Catalog{}},
		{"no name", Catalog{{Power: 1, Rate: 1}}},
		{"dup name", Catalog{{Name: "a", Power: 1, Rate: 1}, {Name: "a", Power: 2, Rate: 2}}},
		{"zero power", Catalog{{Name: "a", Power: 0, Rate: 1}}},
		{"negative rate", Catalog{{Name: "a", Power: 1, Rate: -1}}},
		{"inf power", Catalog{{Name: "a", Power: math.Inf(1), Rate: 1}}},
		{"nan rate", Catalog{{Name: "a", Power: 1, Rate: math.NaN()}}},
	}
	for _, c := range cases {
		if err := c.c.Validate(); err == nil {
			t.Errorf("%s: invalid catalog accepted", c.name)
		}
	}
}

// TestValidateFindsDuplicatesAtEverySize checks the duplicate-name test
// on both sides of smallCatalog: the same error for the first repeated
// name, and no allocation for a catalog compared name by name.
func TestValidateFindsDuplicatesAtEverySize(t *testing.T) {
	for _, n := range []int{2, 9, smallCatalog, smallCatalog + 1, 40} {
		c := LinearCatalog(n, 1, 1)
		if err := c.Validate(); err != nil {
			t.Fatalf("%d types: %v", n, err)
		}
		c[n-1].Name = c[(n-1)/2].Name
		want := fmt.Sprintf("cloud: duplicate type name %q", c[n-1].Name)
		if err := c.Validate(); err == nil || err.Error() != want {
			t.Fatalf("%d types: Validate = %v, want %s", n, err, want)
		}
	}
	c := LinearCatalog(smallCatalog, 1, 1)
	if avg := testing.AllocsPerRun(100, func() { _ = c.Validate() }); avg != 0 {
		t.Fatalf("Validate of %d types allocates %v times per call", smallCatalog, avg)
	}
}

func TestCatalogByName(t *testing.T) {
	c := PaperExampleCatalog()
	if i := c.ByName("VT2"); i != 1 {
		t.Fatalf("ByName(VT2) = %d", i)
	}
	if i := c.ByName("nope"); i != -1 {
		t.Fatalf("ByName(nope) = %d", i)
	}
}

func TestCatalogFastest(t *testing.T) {
	c := PaperExampleCatalog()
	if i := c.Fastest(); i != 2 {
		t.Fatalf("Fastest = %d, want 2", i)
	}
	tie := Catalog{{Name: "a", Power: 5, Rate: 1}, {Name: "b", Power: 5, Rate: 2}}
	if i := tie.Fastest(); i != 0 {
		t.Fatalf("tie Fastest = %d, want 0 (lowest index)", i)
	}
}

func TestLinearCatalog(t *testing.T) {
	c := LinearCatalog(4, 2, 0.5)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c) != 4 {
		t.Fatalf("len = %d", len(c))
	}
	for i, vt := range c {
		wantP := float64(i+1) * 2
		wantR := float64(i+1) * 0.5
		if vt.Power != wantP || vt.Rate != wantR {
			t.Errorf("type %d: power/rate = %v/%v, want %v/%v", i, vt.Power, vt.Rate, wantP, wantR)
		}
	}
	// Linear pricing means cost-per-power is constant: no type dominates
	// another in exact billing, which is what makes the budget/delay
	// trade-off in the paper non-trivial.
	for i := 1; i < len(c); i++ {
		r0 := c[0].Rate / c[0].Power
		ri := c[i].Rate / c[i].Power
		if math.Abs(r0-ri) > 1e-12 {
			t.Fatalf("cost-per-power not constant: %v vs %v", r0, ri)
		}
	}
}

func TestHourlyRoundUp(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {0.01, 1}, {1, 1}, {1.0000000001, 1}, {1.1, 2}, {6.67, 7}, {7, 7},
	}
	for _, c := range cases {
		if got := HourlyRoundUp.BilledTime(c.in); got != c.want {
			t.Errorf("BilledTime(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRoundUpWithUnitAndMinimum(t *testing.T) {
	p := RoundUp{Unit: 1.0 / 60, Minimum: 0.25} // per-minute, 15-min minimum
	if got := p.BilledTime(0.1); got != 0.25 {
		t.Fatalf("minimum not applied: %v", got)
	}
	if got := p.BilledTime(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("exact half hour billed as %v", got)
	}
	if got := p.BilledTime(0.501); math.Abs(got-31.0/60) > 1e-12 {
		t.Fatalf("30.06 min billed as %v, want 31 min", got)
	}
	if got := p.BilledTime(0); got != 0.25 {
		t.Fatalf("zero occupancy with minimum billed %v", got)
	}
}

func TestExactPolicy(t *testing.T) {
	if got := (Exact{}).BilledTime(3.7); got != 3.7 {
		t.Fatalf("Exact billed %v", got)
	}
	if got := (Exact{}).BilledTime(-1); got != 0 {
		t.Fatalf("Exact billed %v for negative duration", got)
	}
}

func TestPolicyStrings(t *testing.T) {
	if s := HourlyRoundUp.String(); s != "roundup(unit=1)" {
		t.Fatalf("HourlyRoundUp.String = %q", s)
	}
	if s := (RoundUp{Unit: 1, Minimum: 2}).String(); s != "roundup(unit=1,min=2)" {
		t.Fatalf("String = %q", s)
	}
	if s := (Exact{}).String(); s != "exact" {
		t.Fatalf("String = %q", s)
	}
}

func TestBilledTimeProperties(t *testing.T) {
	// BilledTime(d) >= d, and monotone in d, for all policies.
	policies := []BillingPolicy{HourlyRoundUp, RoundUp{Unit: 0.25}, RoundUp{Unit: 1, Minimum: 2}, Exact{}}
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Keep magnitudes sane for float comparisons.
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		lo, hi := math.Min(a, b), math.Max(a, b)
		for _, p := range policies {
			if p.BilledTime(hi) < hi-1e-6 {
				return false
			}
			if p.BilledTime(lo) > p.BilledTime(hi)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExecCostMatchesPaperExample(t *testing.T) {
	// From the reconstructed Table II inputs: WL=21 on VT1 (VP=3, CV=1)
	// runs 7 hours and costs 7; on VT3 (VP=30, CV=8) runs 0.7h, costs 8.
	c := PaperExampleCatalog()
	if got := ExecCost(HourlyRoundUp, c[0], 21); got != 7 {
		t.Fatalf("cost on VT1 = %v, want 7", got)
	}
	if got := ExecCost(HourlyRoundUp, c[2], 21); got != 8 {
		t.Fatalf("cost on VT3 = %v, want 8", got)
	}
	if got := ExecCost(HourlyRoundUp, c[1], 40); got != 12 {
		t.Fatalf("cost of WL=40 on VT2 = %v, want 12", got)
	}
}
