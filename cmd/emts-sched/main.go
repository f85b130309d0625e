// Command emts-sched schedules a PTG file onto a cluster with any of the
// implemented algorithms and reports the schedule.
//
// Usage:
//
//	emts-sched -ptg graph.json [-platform chti|grelon|file] [-model synthetic]
//	           [-algo emts5] [-seed 1] [-gantt ascii|svg|none] [-out sched.json]
//
// The PTG file format is the JSON structure produced by emts-daggen. The
// platform is either one of the two Grid'5000 presets of the paper or a
// platform file (JSON or "name procs speed_gflops" text).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"emts"
	"emts/internal/sim"
)

func main() {
	var (
		ptgPath      = flag.String("ptg", "", "PTG file (JSON); required")
		platformSpec = flag.String("platform", "chti", "cluster: chti, grelon, or a platform file path")
		modelName    = flag.String("model", "synthetic", "execution-time model: "+strings.Join(emts.Models(), ", "))
		algo         = flag.String("algo", "emts5", "algorithm: "+strings.Join(emts.Algorithms(), ", "))
		seed         = flag.Int64("seed", 1, "random seed (EMTS and random allocators)")
		gantt        = flag.String("gantt", "ascii", "gantt rendering: ascii, svg, none")
		width        = flag.Int("width", 100, "ASCII gantt width in columns")
		outPath      = flag.String("out", "", "write the schedule as JSON to this file")
		profile      = flag.Bool("profile", false, "print the per-processor utilization profile")
		csvPath      = flag.String("csv", "", "write the schedule entries as CSV to this file")
		tracePath    = flag.String("trace", "", "write EA generation statistics as CSV (EMTS algorithms only)")
	)
	flag.Parse()
	opts := outputs{gantt: *gantt, width: *width, out: *outPath, profile: *profile, csv: *csvPath, trace: *tracePath}
	if err := run(*ptgPath, *platformSpec, *modelName, *algo, *seed, opts); err != nil {
		fmt.Fprintln(os.Stderr, "emts-sched:", err)
		os.Exit(1)
	}
}

// outputs bundles the presentation flags.
type outputs struct {
	gantt   string
	width   int
	out     string
	profile bool
	csv     string
	trace   string
}

func run(ptgPath, platformSpec, modelName, algo string, seed int64, o outputs) error {
	if ptgPath == "" {
		return fmt.Errorf("missing -ptg (see -h)")
	}
	f, err := os.Open(ptgPath)
	if err != nil {
		return err
	}
	var g *emts.Graph
	if strings.HasSuffix(strings.ToLower(ptgPath), ".dot") {
		g, err = emts.ReadGraphDOT(f)
	} else {
		g, err = emts.ReadGraph(f)
	}
	f.Close()
	if err != nil {
		return err
	}
	cluster, err := resolveCluster(platformSpec)
	if err != nil {
		return err
	}

	plan, err := sim.Resolve(modelName, algo, seed)
	if err != nil {
		return err
	}
	if o.trace != "" {
		if plan.Params == nil {
			return fmt.Errorf("-trace requires an EMTS algorithm (got %q)", algo)
		}
		trace, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		defer trace.Close()
		fmt.Fprintln(trace, "generation,best,mean,worst,best_ever,rejected")
		plan.Params.OnGeneration = func(gs emts.GenStats) {
			fmt.Fprintf(trace, "%d,%g,%g,%g,%g,%d\n",
				gs.Generation, gs.Best, gs.Mean, gs.Worst, gs.BestEver, gs.Rejected)
		}
	}
	rep, err := plan.Run(context.Background(), g, cluster)
	if err != nil {
		return err
	}

	fmt.Printf("graph:       %s (%d tasks, %d edges)\n", g.Name(), g.NumTasks(), g.NumEdges())
	fmt.Printf("cluster:     %s\n", cluster)
	fmt.Printf("model:       %s\n", rep.Model)
	fmt.Printf("algorithm:   %s\n", rep.Algorithm)
	fmt.Printf("makespan:    %.4f s\n", rep.Makespan)
	fmt.Printf("utilization: %.1f%%\n", 100*rep.Utilization())
	fmt.Printf("elapsed:     %s\n", rep.Elapsed)
	if rep.EMTS != nil {
		fmt.Printf("evaluations: %d (%d rejected)\n", rep.EMTS.Evaluations, rep.EMTS.Rejections)
		fmt.Printf("seeds:\n")
		for _, s := range rep.EMTS.Seeds {
			if s.Err != nil {
				fmt.Printf("  %-10s failed: %v\n", s.Name, s.Err)
				continue
			}
			fmt.Printf("  %-10s makespan %.4f s\n", s.Name, s.Makespan)
		}
	}

	if o.profile {
		fmt.Println()
		fmt.Print(emts.NewProfile(rep.Schedule).Format())
	}

	switch o.gantt {
	case "ascii":
		fmt.Println()
		fmt.Print(rep.Schedule.ASCII(o.width))
	case "svg":
		fmt.Print(rep.Schedule.SVG(1000, 600))
	case "none":
	default:
		return fmt.Errorf("unknown -gantt %q (ascii, svg, none)", o.gantt)
	}

	if o.out != "" {
		out, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := rep.Schedule.Write(out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "schedule written to %s\n", o.out)
	}
	if o.csv != "" {
		if err := os.WriteFile(o.csv, []byte(rep.Schedule.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "CSV written to %s\n", o.csv)
	}
	return nil
}

func resolveCluster(spec string) (emts.Cluster, error) {
	switch strings.ToLower(spec) {
	case "chti":
		return emts.Chti(), nil
	case "grelon":
		return emts.Grelon(), nil
	}
	f, err := os.Open(spec)
	if err != nil {
		return emts.Cluster{}, fmt.Errorf("platform %q is neither a preset nor a readable file: %w", spec, err)
	}
	defer f.Close()
	return emts.ReadCluster(f)
}
