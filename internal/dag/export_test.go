package dag

// RequireTimingsEqual is requireTimingsEqual for the external tests.
var RequireTimingsEqual = requireTimingsEqual

// SweepCounts reports the incremental passes t has run since NewTiming:
// forward and backward passes, how many of each finished densely, and
// the nodes they recomputed in all.
func (t *Timing) SweepCounts() (fwd, fwdDense, bwd, bwdDense, relaxed int) {
	c := t.sweeps
	return c.fwd, c.fwdDense, c.bwd, c.bwdDense, c.relaxed
}
