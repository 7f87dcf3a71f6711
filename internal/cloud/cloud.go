// Package cloud models the IaaS side of the MED-CC problem: VM types with
// processing power and per-unit-time charging rates, and billing policies
// (instance-hour rounding as on EC2, plus finer granularities).
package cloud

import (
	"errors"
	"fmt"
	"math"
)

// VMType describes one virtual machine type VT_j = {VP_j, CV_j} from the
// paper: an overall processing power and an overall financial charging rate
// per unit time, plus descriptive capacity attributes used by the testbed.
type VMType struct {
	// Name identifies the type, e.g. "VT1".
	Name string `json:"name"`
	// Power is VP_j, the overall processing power: workload units
	// processed per unit time.
	Power float64 `json:"power"`
	// Rate is CV_j, the financial cost per billed unit of time.
	Rate float64 `json:"rate"`
	// CPUGHz, RAMKB and DiskGB describe the concrete instance shape
	// (Table V of the paper); they do not enter the scheduling math.
	CPUGHz float64 `json:"cpu_ghz,omitempty"`
	RAMKB  int     `json:"ram_kb,omitempty"`
	DiskGB float64 `json:"disk_gb,omitempty"`
}

// ExecTime returns T(E_ij) = WL_i / VP_j, the execution time of a workload
// on this VM type (Eq. 6 of the paper).
func (vt VMType) ExecTime(workload float64) float64 {
	return workload / vt.Power
}

// Catalog is an ordered set of available VM types. Order matters: schedules
// refer to types by index, and the paper's tables number types from 1.
type Catalog []VMType

// smallCatalog is the size up to which Validate finds a duplicate name by
// comparing each name with the ones before it, which allocates nothing.
// A larger catalog uses a map, so the check stays linear in its size.
// The pairwise compare measured about 2.7 times faster than filling the
// map at 16 names and even with it at 32; 16 stays below that crossover
// and covers the 9-type catalogs the zero-allocation ingest pins use.
const smallCatalog = 16

// Validate checks that the catalog is non-empty with unique names and
// strictly positive powers and rates.
func (c Catalog) Validate() error {
	if len(c) == 0 {
		return errors.New("cloud: empty VM type catalog")
	}
	var seen map[string]bool
	if len(c) > smallCatalog {
		seen = make(map[string]bool, len(c))
	}
	for i, vt := range c {
		if vt.Name == "" {
			return fmt.Errorf("cloud: type %d has empty name", i)
		}
		if seen[vt.Name] || seen == nil && c[:i].ByName(vt.Name) >= 0 {
			return fmt.Errorf("cloud: duplicate type name %q", vt.Name)
		}
		if seen != nil {
			seen[vt.Name] = true
		}
		if !(vt.Power > 0) || math.IsInf(vt.Power, 0) {
			return fmt.Errorf("cloud: type %q has invalid power %v", vt.Name, vt.Power)
		}
		if vt.Rate < 0 || math.IsNaN(vt.Rate) || math.IsInf(vt.Rate, 0) {
			return fmt.Errorf("cloud: type %q has invalid rate %v", vt.Name, vt.Rate)
		}
	}
	return nil
}

// ByName returns the index of the named type, or -1.
func (c Catalog) ByName(name string) int {
	for i, vt := range c {
		if vt.Name == name {
			return i
		}
	}
	return -1
}

// Fastest returns the index of the highest-power type (lowest index wins
// ties, matching the deterministic choices elsewhere in the module).
func (c Catalog) Fastest() int {
	best := 0
	for i := 1; i < len(c); i++ {
		if c[i].Power > c[best].Power {
			best = i
		}
	}
	return best
}

// LinearCatalog builds n VM types priced linearly in processing-power base
// units, the pricing model of §VI-A: type i has power (i+1)*basePower and
// rate (i+1)*basePrice. Names are "VT1".."VTn".
func LinearCatalog(n int, basePower, basePrice float64) Catalog {
	c := make(Catalog, n)
	for i := range c {
		c[i] = VMType{
			Name:  fmt.Sprintf("VT%d", i+1),
			Power: float64(i+1) * basePower,
			Rate:  float64(i+1) * basePrice,
		}
	}
	return c
}

// DiminishingCatalog builds n VM types priced linearly in nominal instance
// size but with sublinear effective processing power: type i has i+1 size
// units, rate (i+1)*basePrice, and power basePower*(i+1)^gamma, gamma in
// (0, 1].
//
// This captures the virtualization overhead the paper measured on its WRF
// testbed: Table VI shows the 8x-larger VT3 running modules only ~2-5x
// faster than VT1, so a linearly-priced faster instance costs more per
// unit of completed work. With gamma = 1 this degenerates to LinearCatalog
// where (under exact billing) every type costs the same per unit of work
// and the budget/delay trade-off collapses to rounding noise.
func DiminishingCatalog(n int, basePower, basePrice, gamma float64) Catalog {
	c := make(Catalog, n)
	for i := range c {
		u := float64(i + 1)
		c[i] = VMType{
			Name:  fmt.Sprintf("VT%d", i+1),
			Power: basePower * math.Pow(u, gamma),
			Rate:  u * basePrice,
		}
	}
	return c
}

// PaperExampleCatalog returns the three VM types of Table I in the paper's
// numerical example: VP = {3, 15, 30}, CV = {1, 4, 8}.
func PaperExampleCatalog() Catalog {
	return Catalog{
		{Name: "VT1", Power: 3, Rate: 1},
		{Name: "VT2", Power: 15, Rate: 4},
		{Name: "VT3", Power: 30, Rate: 8},
	}
}
