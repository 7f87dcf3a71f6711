package exper

import (
	"io"

	"medcc/internal/gen"
	"medcc/internal/sched"
	"medcc/internal/stats"
)

// TableIVRow is one row of Table IV: average MED of CG and GAIN3 across
// budget levels for one problem size, with the improvement percentage and
// the MED ratio. GAINWRF is the Table-VII-evidenced GAIN3 variant,
// reported alongside the literal-reading GAIN column for transparency.
type TableIVRow struct {
	Index     int
	Size      gen.ProblemSize
	CG        float64
	GAIN      float64
	GAINWRF   float64
	ImpPct    float64 // improvement of CG over GAIN
	ImpWRFPct float64 // improvement of CG over GAINWRF
	Ratio     float64 // MED_CG / MED_GAIN
	PerLvl    []float64
}

// TableIV regenerates Table IV (and the Fig. 8 series, which plots its
// improvement column): one random instance per problem size, scheduled by
// CG and GAIN3 at `levels` budget levels across [Cmin, Cmax]; the paper
// uses 20 levels over the 20 sizes of gen.PaperProblemSizes. Each fan-out
// worker owns a campaignScratch, so the instance storage, schedulers, and
// timing are reused across the sizes a worker processes. Each algorithm
// runs the budget grid as one sweep (see campaignScratch.sweep), whose
// level k is the algorithm's ScheduleInto at that budget.
func TableIV(seed int64, levels int) ([]TableIVRow, error) {
	return tableIV(tableIVPlan(seed), nil, levels)
}

// TableIVFromCorpus is TableIV running on a WriteTableIVCorpus stream.
func TableIVFromCorpus(r io.Reader, levels int) ([]TableIVRow, error) {
	return tableIV(tableIVPlan(0), r, levels)
}

// WriteTableIVCorpus writes the Table IV instance set as a binary corpus:
// record k is the instance for size k of gen.PaperProblemSizes.
func WriteTableIVCorpus(w io.Writer, seed int64, compress bool) (int, error) {
	return tableIVPlan(seed).writeCorpus(w, compress)
}

// tableIVPlan is Table IV's item plan: item si is instance si of paper
// problem size si.
func tableIVPlan(seed int64) plan {
	sizes := gen.PaperProblemSizes()
	return plan{n: len(sizes), item: func(si int) planItem {
		return planItem{seed: seed, idx: si, size: sizes[si]}
	}}
}

// tableIV is the Table IV body over the plan's instances, regenerated or
// read from src (see plan.run).
func tableIV(p plan, src io.Reader, levels int) ([]TableIVRow, error) {
	rows := make([]TableIVRow, p.n)
	err := p.run(src, func(cs *campaignScratch, si int, cmin, cmax float64) error {
		budgets := cs.budgetGrid(cmin, cmax, levels)
		cgMEDs, err := cs.meds("critical-greedy", budgets, make([]float64, 0, levels))
		if err != nil {
			return err
		}
		gMEDs, err := cs.meds("gain3", budgets, make([]float64, 0, levels))
		if err != nil {
			return err
		}
		wMEDs, err := cs.meds("gain3-wrf", budgets, make([]float64, 0, levels))
		if err != nil {
			return err
		}
		perLvl := make([]float64, 0, levels)
		for k := 0; k < levels; k++ {
			perLvl = append(perLvl, sched.Improvement(gMEDs[k], cgMEDs[k]))
		}
		cgAvg, gAvg, wAvg := stats.Mean(cgMEDs), stats.Mean(gMEDs), stats.Mean(wMEDs)
		rows[si] = TableIVRow{
			Index:     si + 1,
			Size:      p.item(si).size,
			CG:        cgAvg,
			GAIN:      gAvg,
			GAINWRF:   wAvg,
			ImpPct:    sched.Improvement(gAvg, cgAvg),
			ImpWRFPct: sched.Improvement(wAvg, cgAvg),
			Ratio:     cgAvg / gAvg,
			PerLvl:    perLvl,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// CampaignCell is the average CG-over-GAIN3 improvement for one (problem
// size, budget level) pair across several random instances — the atom
// from which Figs. 9, 10, and 11 are assembled.
type CampaignCell struct {
	SizeIdx int // 1-based index into gen.PaperProblemSizes
	Level   int // 1-based budget level
	AvgImp  float64
}

// Campaign runs the full Fig. 9/10/11 sweep: for every problem size,
// `instances` random workflows, each scheduled by CG and GAIN3 at
// `levels` budget levels; every (size, level) cell averages the
// improvement across the instances. The paper uses 10 instances and 20
// levels (4,000 schedule pairs). As in TableIV, each algorithm covers its
// budget grid with one sweep per instance.
//
// medcc:deterministic — cells are pinned bit-identical to the corpus path
func Campaign(seed int64, instances, levels int) ([]CampaignCell, error) {
	return campaign(campaignPlan(seed, instances), nil, instances, levels)
}

// CampaignFromCorpus is Campaign running on a WriteCampaignCorpus stream.
//
// medcc:deterministic
func CampaignFromCorpus(r io.Reader, instances, levels int) ([]CampaignCell, error) {
	return campaign(campaignPlan(0, instances), r, instances, levels)
}

// WriteCampaignCorpus writes the Figs. 9-11 campaign instance set as a
// binary corpus: record k is work item k of the campaign.
func WriteCampaignCorpus(w io.Writer, seed int64, instances int, compress bool) (int, error) {
	return campaignPlan(seed, instances).writeCorpus(w, compress)
}

// campaignPlan is the campaign's item plan: item k is instance
// k%instances of paper problem size k/instances, with a per-size seed.
func campaignPlan(seed int64, instances int) plan {
	sizes := gen.PaperProblemSizes()
	return plan{n: len(sizes) * instances, item: func(k int) planItem {
		si := k / instances
		return planItem{seed: seed + int64(si)*104729, idx: k % instances, size: sizes[si]}
	}}
}

// campaign is the Figs. 9-11 body over the plan's instances, regenerated
// or read from src (see plan.run).
func campaign(p plan, src io.Reader, instances, levels int) ([]CampaignCell, error) {
	imps := make([][]float64, p.n) // per item, per level
	err := p.run(src, func(cs *campaignScratch, k int, cmin, cmax float64) error {
		budgets := cs.budgetGrid(cmin, cmax, levels)
		cgMEDs, err := cs.meds("critical-greedy", budgets, make([]float64, 0, levels))
		if err != nil {
			return err
		}
		gMEDs, err := cs.meds("gain3", budgets, make([]float64, 0, levels))
		if err != nil {
			return err
		}
		out := make([]float64, levels)
		for lv := 1; lv <= levels; lv++ {
			out[lv-1] = sched.Improvement(gMEDs[lv-1], cgMEDs[lv-1])
		}
		imps[k] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	nsizes := len(gen.PaperProblemSizes())
	cells := make([]CampaignCell, 0, nsizes*levels)
	xs := make([]float64, instances) // one buffer for every (size, level) cell
	for si := 0; si < nsizes; si++ {
		for lv := 1; lv <= levels; lv++ {
			for inst := 0; inst < instances; inst++ {
				xs[inst] = imps[si*instances+inst][lv-1]
			}
			cells = append(cells, CampaignCell{SizeIdx: si + 1, Level: lv, AvgImp: stats.Mean(xs)})
		}
	}
	return cells, nil
}

// Fig9 collapses the campaign over budget levels: average improvement per
// problem size (200 instances per bar in the paper's configuration).
func Fig9(cells []CampaignCell) map[int]float64 {
	sums := map[int][]float64{}
	for _, c := range cells {
		sums[c.SizeIdx] = append(sums[c.SizeIdx], c.AvgImp)
	}
	out := make(map[int]float64, len(sums))
	for k, xs := range sums {
		out[k] = stats.Mean(xs)
	}
	return out
}

// Fig10 collapses the campaign over problem sizes: average improvement per
// budget level.
func Fig10(cells []CampaignCell) map[int]float64 {
	sums := map[int][]float64{}
	for _, c := range cells {
		sums[c.Level] = append(sums[c.Level], c.AvgImp)
	}
	out := make(map[int]float64, len(sums))
	for k, xs := range sums {
		out[k] = stats.Mean(xs)
	}
	return out
}
