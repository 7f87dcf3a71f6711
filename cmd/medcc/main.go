// Command medcc schedules a workflow described in a JSON file under a
// budget constraint and prints the resulting module-to-VM-type mapping,
// end-to-end delay, and cost.
//
// Usage:
//
//	medcc -workflow wf.json -catalog cat.json -budget 57 [-alg critical-greedy] [-billing hourly]
//	medcc -example -budget 57          # run the paper's §V-B example
//	medcc -list                        # list available algorithms
//
// The workflow JSON matches the workflow package's serialization:
//
//	{"modules": [{"name": "w1", "workload": 10}, ...],
//	 "edges":   [{"from": 0, "to": 1, "data_size": 2}, ...]}
//
// The catalog JSON is a list of VM types:
//
//	[{"name": "VT1", "power": 3, "rate": 1}, ...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"medcc"
	"medcc/internal/ingest"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine is the message main prints for err, with one "medcc: "
// prefix: the facade already puts it on the errors it wraps, and the
// CLI's own errors carry none.
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "medcc: ") {
		return msg
	}
	return "medcc: " + msg
}

func run(args []string) error {
	fs := flag.NewFlagSet("medcc", flag.ContinueOnError)
	var (
		wfPath   = fs.String("workflow", "", "workflow file: JSON, Pegasus DAX XML, WfCommons JSON or a binary container (format detected)")
		refPower = fs.Float64("refpower", 1, "reference VM power reproducing DAX runtimes")
		catPath  = fs.String("catalog", "", "VM catalog JSON file")
		budget   = fs.Float64("budget", 0, "financial budget B")
		alg      = fs.String("alg", "critical-greedy", "scheduling algorithm")
		billing  = fs.String("billing", "hourly", "billing policy: hourly | second | exact")
		example  = fs.Bool("example", false, "use the paper's numerical example workflow")
		list     = fs.Bool("list", false, "list available algorithms and exit")
		showPlan = fs.Bool("reuse", false, "also print a VM reuse plan")
		gantt    = fs.Bool("gantt", false, "simulate the schedule and draw an ASCII Gantt chart")
		boot     = fs.Float64("boot", 0, "VM boot latency for the -gantt/-trace simulation")
		bw       = fs.Float64("bw", 0, "shared-storage bandwidth for the -gantt/-trace simulation (0 = free)")
		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON of the simulated run to this file")
		dotOut   = fs.String("dot", "", "write a Graphviz rendering of the scheduled workflow to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println(strings.Join(medcc.Algorithms(), "\n"))
		return nil
	}

	var w *medcc.Workflow
	var cat medcc.Catalog
	switch {
	case *example:
		w, cat = medcc.PaperExample()
	case *wfPath != "" && *catPath != "":
		// The shared streaming ingest path detects the format.
		parsed, _, _, err := ingest.File(*wfPath, ingest.Options{ReferencePower: *refPower})
		if err != nil {
			return err
		}
		w = parsed
		if err := ingest.JSONFile(*catPath, &cat); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -workflow and -catalog, or -example (see -h)")
	}

	var policy medcc.BillingPolicy
	switch *billing {
	case "hourly":
		policy = medcc.HourlyBilling
	case "second":
		policy = medcc.PerSecondBilling
	case "exact":
		policy = medcc.ExactBilling
	default:
		return fmt.Errorf("unknown billing policy %q", *billing)
	}

	cmin, cmax, err := medcc.BudgetRange(w, cat, policy)
	if err != nil {
		return err
	}
	fmt.Printf("budget range: [Cmin=%.4g, Cmax=%.4g]\n", cmin, cmax)

	res, err := medcc.Solve(w, cat, policy, *budget, *alg)
	if err != nil {
		return err
	}
	fmt.Printf("algorithm: %s\nbudget:    %.4g\nMED:       %.6g\ncost:      %.6g\n", *alg, *budget, res.MED, res.Cost)
	if res.Truncated {
		fmt.Println("note:      the search hit its node limit; this schedule is not proven optimal")
	}
	for i := 0; i < w.NumModules(); i++ {
		if res.Schedule[i] < 0 {
			fmt.Printf("  %-12s fixed (%.4g time units)\n", w.Module(i).Name, w.Module(i).FixedTime)
			continue
		}
		vt := cat[res.Schedule[i]]
		fmt.Printf("  %-12s -> %-8s time %.4g cost %.4g\n",
			w.Module(i).Name, vt.Name,
			res.Matrices.TE[i][res.Schedule[i]], res.Matrices.CE[i][res.Schedule[i]])
	}

	if *dotOut != "" {
		dot, err := w.ExportDOT(res.Schedule, cat, res.Matrices)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*dotOut, []byte(dot), 0o644); err != nil {
			return err
		}
		fmt.Printf("graph written to %s (render with: dot -Tsvg %s)\n", *dotOut, *dotOut)
	}

	var plan *medcc.ReusePlan
	if *showPlan || *gantt || *traceOut != "" {
		p, err := medcc.PlanReuse(w, res)
		if err != nil {
			return err
		}
		plan = p
	}
	if *showPlan {
		fmt.Printf("reuse plan: %d VM instance(s) for %d modules\n", plan.NumVMs(), len(w.Schedulable()))
		for v, mods := range plan.ModulesOf {
			names := make([]string, len(mods))
			for k, i := range mods {
				names[k] = w.Module(i).Name
			}
			fmt.Printf("  VM %d (%s): %s\n", v, cat[plan.TypeOf[v]].Name, strings.Join(names, " -> "))
		}
	}
	if *gantt || *traceOut != "" {
		sim, err := medcc.Simulate(w, res, plan, *boot, *bw, 0)
		if err != nil {
			return err
		}
		names := make([]string, w.NumModules())
		for i := range names {
			names[i] = w.Module(i).Name
		}
		if *gantt {
			fmt.Println()
			if err := sim.RenderGantt(os.Stdout, names, 64); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if err := sim.WriteChromeTrace(f, names); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
		}
	}
	return nil
}
