// Command suiterun executes declarative scenario suites (suites/*.json)
// and applies their statistical release gates: multi-seed detector
// quality thresholds, cross-seed variance bounds, and Table-3 outcome
// checks. It emits suite_report.json (byte-stable across reruns and
// worker counts) plus provenance.json, and doubles as the paired A/B
// judge two detector configurations are compared under.
//
// Gate a release:
//
//	suiterun -suite suites/release.json
//
// Prove a detector change (the detector-PR workflow):
//
//	suiterun -suite suites/release.json -out old/                      # baseline arm
//	suiterun -suite suites/release.json -dict -arm new -out new/       # candidate arm
//	suiterun -ab old/suite_report.json,new/suite_report.json
//
// Exit status: 0 when every gate passes (or the A/B verdict is
// accept), 1 on gate breach or reject, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bgpworms/internal/obs"
	"bgpworms/internal/scenario"
	"bgpworms/internal/suite"
)

func main() {
	var (
		suitePath = flag.String("suite", "", "suite file to run (suites/*.json)")
		jsonOut   = flag.Bool("json", false, "print the machine-readable report instead of tables")
		outDir    = flag.String("out", ".", "directory for suite_report.json + provenance.json (empty: don't write)")
		workers   = flag.Int("workers", 0, "harness workers (0: one per CPU; reports are identical for any value)")
		armName   = flag.String("arm", "", "label for the detector arm under test")
		detectors = flag.String("detectors", "", "comma-separated detector names overriding the suite's arm")
		dict      = flag.Bool("dict", false, "train per-(scale,seed) dictionaries and enable the dictionary-aware detectors")
		ab        = flag.String("ab", "", "old.json,new.json: compare two suite reports with the paired decision rule")
		traceOut  = flag.String("trace", "", "write a JSON span trace of the run (per-cell build/eval breakdown)")
		verbose   = flag.Bool("v", false, "report per-cell progress on stderr and print the span summary")
		recallTol = flag.Float64("recall-tol", 0, "A/B: tolerated per-cell recall drop")
		precTol   = flag.Float64("precision-tol", 0, "A/B: tolerated per-cell precision drop")
		noiseTol  = flag.Int("noise-tol", 0, "A/B: tolerated per-cell noise-alert increase")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q: every input is a flag, and flags after it were not read (see -h)", flag.Arg(0)))
	}

	if *ab != "" {
		os.Exit(runAB(*ab, suite.ABOptions{
			RecallTolerance:    *recallTol,
			PrecisionTolerance: *precTol,
			NoiseTolerance:     *noiseTol,
		}, *jsonOut))
	}
	if *suitePath == "" {
		fmt.Fprintln(os.Stderr, "usage: suiterun -suite suites/release.json | suiterun -ab old.json,new.json")
		flag.PrintDefaults()
		os.Exit(2)
	}

	data, err := os.ReadFile(*suitePath)
	if err != nil {
		fatal(err)
	}
	s, err := suite.Parse(data)
	if err != nil {
		fatal(err)
	}
	if *outDir != "" {
		// Before the run, not after it: a suite is minutes of work to
		// lose to a directory that was never there.
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	// The trace is always collected: it is cheap, and provenance.json
	// carries the per-cell span breakdown whether or not -trace asked
	// for a standalone file.
	tr := obs.NewTrace("suiterun " + s.Name)
	opt := suite.Options{Workers: *workers, SweepOpt: scenario.SweepOpt{Trace: tr}}
	if *verbose {
		opt.Progress = scenario.PrintProgress(os.Stderr)
	}
	if *detectors != "" || *dict {
		arm := &suite.Arm{Name: *armName, Dict: *dict}
		if *detectors != "" {
			arm.Detectors = strings.Split(*detectors, ",")
		}
		opt.Arm = arm
	} else if *armName != "" && s.Arm != nil {
		s.Arm.Name = *armName
	}

	start := time.Now()
	rep, err := suite.Run(s, opt)
	if err != nil {
		fatal(err)
	}
	prov := suite.NewProvenance(s, *suitePath, data, rep, *workers, time.Since(start))
	prov.Spans = tr.Records()
	if *traceOut != "" {
		if err := tr.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
	}
	if *verbose {
		fmt.Fprint(os.Stderr, tr.Summary())
	}
	if rep.SnapshotBuilds > 0 {
		fmt.Fprintf(os.Stderr, "warm worlds: %d built, %d cell runs forked\n",
			rep.SnapshotBuilds, rep.SnapshotForks)
	}

	if *outDir != "" {
		if err := writeJSON(filepath.Join(*outDir, "suite_report.json"), rep); err != nil {
			fatal(err)
		}
		if err := writeJSON(filepath.Join(*outDir, "provenance.json"), prov); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(suite.Render(rep))
	}
	if !rep.Pass {
		os.Exit(1)
	}
}

func runAB(spec string, opt suite.ABOptions, jsonOut bool) int {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintln(os.Stderr, "-ab wants exactly old.json,new.json")
		return 2
	}
	old, err := loadReport(parts[0])
	if err != nil {
		fatal(err)
	}
	new, err := loadReport(parts[1])
	if err != nil {
		fatal(err)
	}
	rep, err := suite.Compare(old, new, opt)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Print(suite.RenderAB(rep))
	}
	if !rep.Accept {
		return 1
	}
	return 0
}

func loadReport(path string) (*suite.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep suite.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "suiterun:", err)
	os.Exit(2)
}
