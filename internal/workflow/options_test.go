package workflow

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"medcc/internal/cloud"
)

// optionsFixture builds a 3-module workflow over a catalog where hourly
// round-up billing makes the middle type dominated for some workloads.
func optionsFixture(t *testing.T) (*Workflow, *Matrices) {
	t.Helper()
	w := New()
	w.AddModule(Module{Name: "w0", Fixed: true, FixedTime: 1})
	a := w.AddModule(Module{Name: "a", Workload: 33})
	b := w.AddModule(Module{Name: "b", Workload: 90})
	w.AddModule(Module{Name: "end", Fixed: true, FixedTime: 1})
	if err := w.AddDependency(a, b, 1); err != nil {
		t.Fatal(err)
	}
	cat := cloud.Catalog{
		{Name: "slow", Power: 3, Rate: 1},
		{Name: "mid", Power: 15, Rate: 4},
		{Name: "fast", Power: 30, Rate: 8},
	}
	m, err := w.BuildMatrices(cat, cloud.HourlyRoundUp)
	if err != nil {
		t.Fatal(err)
	}
	return w, m
}

func TestOptionsPruneDominatedTypes(t *testing.T) {
	_, m := optionsFixture(t)
	for i := range m.TE {
		opts := m.Options(i)
		if len(opts) == 0 {
			t.Fatalf("module %d: empty option list", i)
		}
		// Every surviving option must be undominated by every other
		// surviving option with a smaller index.
		for x, j := range opts {
			for _, k := range opts[:x] {
				if m.TE[i][k] <= m.TE[i][j] && m.CE[i][k] <= m.CE[i][j] {
					t.Fatalf("module %d: option %d survives although %d dominates it", i, j, k)
				}
			}
		}
		// Every pruned option must be dominated by some survivor.
		for j := range m.TE[i] {
			kept := false
			for _, o := range opts {
				if o == j {
					kept = true
					break
				}
			}
			if kept {
				continue
			}
			dominated := false
			for _, k := range opts {
				if k < j && m.TE[i][k] <= m.TE[i][j] && m.CE[i][k] <= m.CE[i][j] {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("module %d: option %d pruned without a dominating survivor", i, j)
			}
		}
	}
}

func TestOptionsNilWithoutBuild(t *testing.T) {
	m := &Matrices{TE: [][]float64{{1, 2}}, CE: [][]float64{{2, 1}}}
	if m.Options(0) != nil {
		t.Fatal("Options should be nil before BuildOptions")
	}
	m.BuildOptions()
	if got := m.Options(0); len(got) != 2 {
		t.Fatalf("no option dominated here, want both, got %v", got)
	}
}

func TestTimesIntoMatchesTimes(t *testing.T) {
	w, m := optionsFixture(t)
	rng := rand.New(rand.NewSource(5))
	buf := make([]float64, w.NumModules())
	for trial := 0; trial < 20; trial++ {
		s := make(Schedule, w.NumModules())
		for i := range s {
			if w.Module(i).Fixed {
				s[i] = -1
				continue
			}
			s[i] = rng.Intn(len(m.Catalog))
		}
		want := m.Times(s)
		got := m.TimesInto(s, buf)
		if &got[0] != &buf[0] {
			t.Fatal("TimesInto did not reuse the buffer")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: times[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
	// Wrong-size destination must be replaced, not written out of range.
	if got := m.TimesInto(make(Schedule, w.NumModules()), make([]float64, 1)); len(got) != w.NumModules() {
		t.Fatalf("TimesInto with short dst returned len %d", len(got))
	}
}

func TestLeastCostIntoMatchesLeastCost(t *testing.T) {
	w, m := optionsFixture(t)
	want := m.LeastCost(w)
	buf := make(Schedule, w.NumModules())
	got := m.LeastCostInto(w, buf)
	if &got[0] != &buf[0] {
		t.Fatal("LeastCostInto did not reuse the buffer")
	}
	if !got.Equal(want) {
		t.Fatalf("LeastCostInto = %v, want %v", got, want)
	}
}

// TestOptionTableMatchesStableSort holds every module's option rows to a
// stable sort of Options(i) by (TE, type), and Options(i) to the
// dominance rule, on one Matrices rebuilt in place: generated catalogs
// whose powers are often a float apart (math.Nextafter), so that WL/VP
// ties across types of different power, listed slow to fast, fast to
// slow or shuffled; workload-0 and fixed modules; and hand-built
// matrices with no catalog or one that does not describe their columns.
func TestOptionTableMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	w := New()
	var m Matrices
	tied := 0
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(9)
		powers := make([]float64, n)
		p := 0.5 + rng.Float64()*4
		for j := range powers {
			switch rng.Intn(3) {
			case 0:
				p = math.Nextafter(p, math.Inf(1))
			case 1:
				p = 0.5 + rng.Float64()*4
			}
			powers[j] = p
		}
		switch rng.Intn(3) {
		case 0:
			sort.Float64s(powers)
		case 1:
			sort.Sort(sort.Reverse(sort.Float64Slice(powers)))
		default:
			rng.Shuffle(n, func(a, b int) { powers[a], powers[b] = powers[b], powers[a] })
		}
		cat := make(cloud.Catalog, n)
		for j := range cat {
			cat[j] = cloud.VMType{Name: fmt.Sprintf("t%d", j), Power: powers[j], Rate: float64(rng.Intn(4)) + rng.Float64()}
		}
		if trial%4 == 3 {
			// Hand-built: random times and costs with ties, and a catalog
			// that is absent or unrelated to them.
			m.TE, m.CE = make([][]float64, 6), make([][]float64, 6)
			for i := range m.TE {
				m.TE[i], m.CE[i] = make([]float64, n), make([]float64, n)
				for j := 0; j < n; j++ {
					m.TE[i][j], m.CE[i][j] = float64(rng.Intn(4)), float64(rng.Intn(4))
				}
			}
			m.Catalog = nil
			if rng.Intn(2) == 0 {
				m.Catalog = cat
			}
			m.BuildOptions()
		} else {
			w.Reset()
			for i := 0; i < 1+rng.Intn(8); i++ {
				mod := Module{Name: fmt.Sprintf("w%d", i), Workload: 1 + rng.Float64()*1000}
				switch rng.Intn(6) {
				case 0:
					mod.Workload = 0
				case 1:
					mod = Module{Name: mod.Name, Fixed: true, FixedTime: float64(rng.Intn(3))}
				case 2:
					mod.Workload = float64(1 + rng.Intn(8))
				}
				w.AddModule(mod)
			}
			w.AddModule(Module{Name: "sched", Workload: 7})
			billing := []cloud.BillingPolicy{cloud.HourlyRoundUp, cloud.Exact{}}[rng.Intn(2)]
			if _, err := w.BuildMatricesInto(cat, billing, &m); err != nil {
				t.Fatal(err)
			}
		}
		for i := range m.TE {
			te, ce := m.TE[i], m.CE[i]
			var want []int
			for j := range te {
				dominated := false
				for k := 0; k < j; k++ {
					if te[k] <= te[j] && ce[k] <= ce[j] {
						dominated = true
					}
				}
				if !dominated {
					want = append(want, j)
				}
			}
			if opts := m.Options(i); !slices.Equal(opts, want) {
				t.Fatalf("trial %d module %d: Options %v, want %v", trial, i, opts, want)
			}
			slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(te[a], te[b]) })
			typ, gotTE, gotCE := m.OptionTable(i)
			if len(typ) != len(want) {
				t.Fatalf("trial %d module %d: %d rows, want %d", trial, i, len(typ), len(want))
			}
			for r, j := range want {
				if int(typ[r]) != j || math.Float64bits(gotTE[r]) != math.Float64bits(te[j]) ||
					math.Float64bits(gotCE[r]) != math.Float64bits(ce[j]) {
					t.Fatalf("trial %d module %d: rows %v, want types %v", trial, i, typ, want)
				}
				if r > 0 && gotTE[r] == gotTE[r-1] {
					tied++
				}
			}
		}
	}
	if tied < 1000 {
		t.Fatalf("only %d rows tie on time with the row before; the trials must exercise the type tie-break", tied)
	}
}
