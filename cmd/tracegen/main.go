// Command tracegen is the workbench for workload traces: it generates traces
// from any built-in scenario, imports external cluster logs (Philly- and
// Alibaba-style CSV), calibrates scenarios against traces, validates and
// describes trace files, and lists the scenario library.
//
//	tracegen generate -scenario diurnal -apps 100 -out trace.json
//	tracegen list
//	tracegen import -in cluster_log.csv -format auto -out trace.json
//	tracegen fit -in trace.json -out fitted.json
//	tracegen validate trace.json
//	tracegen describe trace.json
//	tracegen describe heavy-tailed
//	tracegen describe fitted.json
//
// Invoked with flags but no subcommand, it behaves like "generate", keeping
// the original tracegen CLI working.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"themis"
)

func main() {
	args := os.Args[1:]
	cmd := "generate"
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "generate":
		err = runGenerate(args)
	case "list":
		err = runList()
	case "import":
		err = runImport(args)
	case "fit":
		err = runFit(args)
	case "validate":
		err = runValidate(args)
	case "describe":
		err = runDescribe(args)
	case "help", "-h", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown subcommand %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: tracegen <subcommand> [flags]

subcommands:
  generate   generate a trace from a built-in scenario (default)
  list       list the built-in scenarios
  import     normalise an external cluster log (philly/alibaba CSV) into a trace
  fit        calibrate a scenario against a trace (ScenarioConfig JSON + fit report)
  validate   check trace files against the format contract
  describe   summarise a trace file, a built-in scenario or a fit report

run "tracegen <subcommand> -h" for flags.
`)
}

func runGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	var (
		scenario   = fs.String("scenario", "paper-mix", "built-in scenario to generate from (see: tracegen list)")
		numApps    = fs.Int("apps", 0, "number of applications (0: scenario default)")
		seed       = fs.Int64("seed", 1, "generation seed")
		contention = fs.Float64("contention", 0, "contention factor scaling the arrival rate (0: scenario default)")
		scale      = fs.Float64("scale", 0, "job duration scale factor (0: scenario default)")
		network    = fs.Float64("network", -1, "fraction of network-intensive apps (negative: scenario default)")
		interArr   = fs.Float64("interarrival", 0, "mean inter-arrival time in minutes (0: scenario default)")
		out        = fs.String("out", "", "output trace file (default: stdout)")
		encoding   = fs.String("encoding", "json", "output encoding: json or binary (compact v3 container)")
		summary    = fs.Bool("summary", true, "print trace summary statistics to stderr")
		name       = fs.String("name", "", "trace name recorded in the file (default: scenario name)")
	)
	fs.Parse(args)

	params := themis.ScenarioParams{
		Seed:             *seed,
		NumApps:          *numApps,
		ContentionFactor: *contention,
		DurationScale:    *scale,
		MeanInterArrival: *interArr,
	}
	if *network >= 0 {
		params.NetworkFraction = network
	}
	apps, err := themis.GenerateScenario(*scenario, params)
	if err != nil {
		return err
	}
	traceName := *name
	if traceName == "" {
		traceName = *scenario
	}
	tr := themis.NewTrace(traceName, apps)
	if *summary {
		printStats(themis.SummarizeWorkload(apps))
	}
	return writeTrace(tr, *out, *encoding)
}

func runList() error {
	for _, name := range themis.Scenarios() {
		desc, err := themis.DescribeScenario(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %s\n", name, desc)
	}
	return nil
}

func runImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	var (
		in          = fs.String("in", "", "input file (default: stdin)")
		format      = fs.String("format", "auto", "input format: "+formatNames())
		out         = fs.String("out", "", "output trace file (default: stdout)")
		encoding    = fs.String("encoding", "json", "output encoding: json or binary (compact v3 container)")
		name        = fs.String("name", "", "trace name recorded in the file (default: format name)")
		timeScale   = fs.Float64("timescale", 0, "minutes per input time unit (0: format convention)")
		keepAll     = fs.Bool("keep-noncompleted", false, "keep failed/killed rows instead of dropping them")
		maxApps     = fs.Int("max-apps", 0, "cap the number of imported apps (0: all)")
		model       = fs.String("model", "", "stamp every app with this model family: "+strings.Join(themis.ModelNames(), ", "))
		profile     = fs.String("placement-profile", "", "stamp every app with a v2 placement block naming this profile")
		minPerMach  = fs.Int("min-gpus-per-machine", 0, "placement block: per-machine GPU floor for every job (0: none)")
		maxMachines = fs.Int("max-machines", 0, "placement block: machine-spread cap for every job (0: none)")
		progress    = fs.Bool("progress", false, "report streaming-import progress to stderr")
		summary     = fs.Bool("summary", true, "print trace summary statistics to stderr")
	)
	fs.Parse(args)

	opts := themis.ImportOptions{
		Name:             *name,
		TimeScale:        *timeScale,
		KeepNonCompleted: *keepAll,
		MaxApps:          *maxApps,
		Model:            *model,
	}
	if *profile != "" || *minPerMach != 0 || *maxMachines != 0 {
		opts.Placement = &themis.PlacementSpec{
			Profile:           *profile,
			MinGPUsPerMachine: *minPerMach,
			MaxMachines:       *maxMachines,
		}
	}
	var onProgress func(themis.ImportProgress)
	if *progress {
		onProgress = func(p themis.ImportProgress) {
			fmt.Fprintf(os.Stderr, "import: %s %d rows, %d apps, %.1f MB%s\n",
				p.Format, p.Rows, p.Kept, float64(p.Bytes)/(1<<20), doneSuffix(p.Done))
		}
	}
	src := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	tr, err := themis.ImportTraceStream(src, themis.TraceFormat(*format), opts, onProgress)
	if err != nil {
		return err
	}
	if *summary {
		apps, err := tr.ToApps()
		if err != nil {
			return err
		}
		printStats(themis.SummarizeWorkload(apps))
	}
	return writeTrace(tr, *out, *encoding)
}

// runFit calibrates a scenario against a trace: any input Import accepts
// (native JSON or a Philly/Alibaba-style CSV) in, fitted ScenarioConfig JSON
// plus a human-readable fit-quality report out. The output file loads back
// through themis.LoadFitReport and themis-sim's -scenario flag.
func runFit(args []string) error {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	var (
		in        = fs.String("in", "", "input trace file (default: stdin)")
		format    = fs.String("format", "auto", "input format: "+formatNames())
		out       = fs.String("out", "", "output fit-report file (default: stdout)")
		name      = fs.String("name", "", "provenance source name (default: the trace's name)")
		timeScale = fs.Float64("timescale", 0, "minutes per input time unit (0: format convention)")
		keepAll   = fs.Bool("keep-noncompleted", false, "keep failed/killed rows instead of dropping them")
		maxApps   = fs.Int("max-apps", 0, "cap the number of imported apps before fitting (0: all)")
		report    = fs.Bool("report", true, "print the fit-quality report to stderr")
	)
	fs.Parse(args)

	src := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	tr, err := themis.ImportTrace(src, themis.TraceFormat(*format), themis.ImportOptions{
		TimeScale:        *timeScale,
		KeepNonCompleted: *keepAll,
		MaxApps:          *maxApps,
	})
	if err != nil {
		return err
	}
	rep, err := themis.FitTrace(tr)
	if err != nil {
		return err
	}
	if *name != "" {
		rep.Provenance.Source = *name
	}
	rep.Provenance.FittedAt = time.Now().UTC().Format("2006-01-02")
	if *report {
		fmt.Fprint(os.Stderr, rep.Render())
	}
	if *out == "" {
		return rep.WriteJSON(os.Stdout)
	}
	if err := themis.SaveFitReport(*out, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	return nil
}

func runValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("validate needs at least one trace file")
	}
	failed := false
	for _, path := range fs.Args() {
		tr, info, err := themis.LoadTraceWithInfo(path)
		if err == nil {
			// Loading validates the format; materialising catches the rest
			// (unknown models fall back, bad jobs error).
			_, err = tr.ToApps()
		}
		if err != nil {
			failed = true
			fmt.Printf("%s: INVALID: %v\n", path, err)
			continue
		}
		// Report what is on disk — the detected encoding and the version the
		// file declares — not the in-memory version after upgrade.
		fmt.Printf("%s: OK (%s version %d, %d apps)\n", path, info.Encoding, info.WireVersion, len(tr.Apps))
	}
	if failed {
		return fmt.Errorf("validation failed")
	}
	return nil
}

func runDescribe(args []string) error {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "generation seed when describing a scenario")
	apps := fs.Int("apps", 0, "app count when describing a scenario (0: scenario default)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("describe needs one trace file, fit report or scenario name")
	}
	target := fs.Arg(0)

	// A built-in scenario name describes the scenario; a fit-report file
	// renders the calibration; anything else is a trace file.
	params := themis.ScenarioParams{Seed: *seed, NumApps: *apps}
	if desc, err := themis.DescribeScenario(target); err == nil {
		fmt.Printf("scenario %s: %s\n", target, desc)
		generated, err := themis.GenerateScenario(target, params)
		if err != nil {
			return err
		}
		printStats(themis.SummarizeWorkload(generated))
		return nil
	}
	if rep, err := themis.LoadFitReport(target); err == nil {
		fmt.Printf("fit report %s\n", target)
		fmt.Print(rep.Render())
		generated, err := themis.ComposeWorkload(params.Apply(rep.Config))
		if err != nil {
			return err
		}
		printStats(themis.SummarizeWorkload(generated))
		return nil
	}

	tr, err := themis.LoadTrace(target)
	if err != nil {
		return err
	}
	materialised, err := tr.ToApps()
	if err != nil {
		return err
	}
	fmt.Printf("trace %q (version %d)\n", tr.Name, tr.Version)
	printStats(themis.SummarizeWorkload(materialised))
	return nil
}

// formatNames lists the -format values: auto plus every registered format.
func formatNames() string {
	names := []string{string(themis.TraceFormatAuto)}
	for _, f := range themis.TraceFormats() {
		names = append(names, string(f))
	}
	return strings.Join(names, ", ")
}

func doneSuffix(done bool) string {
	if done {
		return " (done)"
	}
	return ""
}

func writeTrace(tr themis.Trace, out, encoding string) error {
	switch encoding {
	case "", "json":
		if out == "" {
			return tr.Write(os.Stdout)
		}
		if err := themis.SaveTrace(out, tr); err != nil {
			return err
		}
	case "binary":
		if out == "" {
			return themis.WriteTraceBinary(os.Stdout, tr)
		}
		if err := themis.SaveTraceBinary(out, tr); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown output encoding %q (want json or binary)", encoding)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return nil
}

func printStats(st themis.WorkloadStats) {
	fmt.Fprintf(os.Stderr, "apps                 %d\n", st.NumApps)
	fmt.Fprintf(os.Stderr, "jobs                 %d\n", st.NumJobs)
	fmt.Fprintf(os.Stderr, "jobs/app             min %d, median %.0f, max %d\n", st.JobsPerAppMin, st.JobsPerAppMedian, st.JobsPerAppMax)
	fmt.Fprintf(os.Stderr, "task duration        p50 %.1f min, p90 %.1f min, max %.1f min\n", st.TaskDurationP50, st.TaskDurationP90, st.TaskDurationMax)
	fmt.Fprintf(os.Stderr, "4-GPU gangs          %.0f%%\n", st.GangSize4Fraction*100)
	fmt.Fprintf(os.Stderr, "network-intensive    %.0f%% of apps\n", st.NetworkAppFraction*100)
	fmt.Fprintf(os.Stderr, "mean inter-arrival   %.1f min\n", st.MeanInterArrival)
	fmt.Fprintf(os.Stderr, "total serial work    %.0f GPU-min\n", st.TotalSerialWork)
}
