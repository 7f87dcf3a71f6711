package cloud

import (
	"fmt"
	"math"
)

// BillingPolicy maps a raw occupancy duration to the billed duration. The
// paper's model (and classic EC2) rounds any partial hour up to a whole
// hour: C(E_ij) = T'(E_ij) * CV_j where T' is the rounded-up time (Eq. 7).
type BillingPolicy interface {
	// BilledTime returns the duration that will be charged for an
	// occupancy of d time units. It must be >= d for d >= 0 and
	// monotone non-decreasing.
	BilledTime(d float64) float64
	// String names the policy for reports.
	String() string
}

// RoundUp bills in whole increments of Unit, rounding any partial increment
// up, with an optional Minimum billed duration. Unit = 1 with Minimum = 0
// is the paper's instance-hour model when times are expressed in hours.
type RoundUp struct {
	// Unit is the billing increment; must be > 0.
	Unit float64
	// Minimum is the smallest billed duration (e.g. modern per-second
	// billing with a 60-second minimum). Zero means no minimum.
	Minimum float64
}

// BilledTime implements BillingPolicy.
func (r RoundUp) BilledTime(d float64) float64 {
	if d <= 0 {
		// Zero-length occupancy still pays the minimum if one is set:
		// an instance that booted was provisioned.
		return r.Minimum
	}
	units := math.Ceil(d/r.Unit - fpSlack)
	billed := units * r.Unit
	if billed < r.Minimum {
		billed = r.Minimum
	}
	return billed
}

// fpSlack absorbs float jitter so that e.g. a computed 3.0000000000000004
// hours bills as 3 units, not 4. It is far below the billing granularity of
// any real provider.
const fpSlack = 1e-9

func (r RoundUp) String() string {
	if r.Minimum > 0 {
		return fmt.Sprintf("roundup(unit=%g,min=%g)", r.Unit, r.Minimum)
	}
	return fmt.Sprintf("roundup(unit=%g)", r.Unit)
}

// Exact bills precisely the occupied duration (idealized pay-as-you-go).
type Exact struct{}

// BilledTime implements BillingPolicy.
func (Exact) BilledTime(d float64) float64 {
	if d < 0 {
		return 0
	}
	return d
}

func (Exact) String() string { return "exact" }

// HourlyRoundUp is the paper's billing model: times are in hours and any
// partial hour is charged as a full hour.
var HourlyRoundUp BillingPolicy = RoundUp{Unit: 1}

// ExecCost returns C(E_ij) = BilledTime(T(E_ij)) * CV_j, the execution cost
// of a workload on a VM type under the given billing policy (Eq. 7).
func ExecCost(p BillingPolicy, vt VMType, workload float64) float64 {
	return p.BilledTime(vt.ExecTime(workload)) * vt.Rate
}
