// Command bench is the repository's one yardstick: it builds the shipped
// binaries, drives them from outside with generated input, checks their
// output, and reports the end-to-end metrics a user of each path feels;
// a separate traced run calls each layer's public functions in-process
// and attributes the time to layers. See README.md.
//
//	go run ./bench -workload world-cold|sweep-warm|serve-saturate|fleet-paced [-seed 1] [-seconds 20] [-trace 1] [-out f.json]
//	go run ./bench -all [-smoke]
//	go run ./bench -aa [-workload W]
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// workloadTimeout bounds one run; the rig kills every child when it
// passes. The contract allows a run 180 s.
const workloadTimeout = 170 * time.Second

// workDir holds the built binaries, per-run temp trees and trace files;
// .gitignore names it.
const workDir = ".bench_build"

// aaPairs is how many seeds -aa runs twice per workload: the
// choosing-metrics guide's minimum for a comparison.
const aaPairs = 10

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	all, aa  bool
	compare  bool
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: world-cold, sweep-warm, serve-saturate, fleet-paced")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the only source of the generated input")
	flag.IntVar(&o.seconds, "seconds", 20, "measurement budget per run; sizes bursts, steps and repeats")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced in-process run reporting per-layer metrics instead of driving the binaries")
	flag.StringVar(&o.out, "out", "", "write the full result(s) as JSON to this file")
	flag.BoolVar(&o.all, "all", false, "run every workload, untraced then traced")
	flag.BoolVar(&o.aa, "aa", false, "run the full set (or just -workload) twice over seeds seed..seed+9, the two sets interleaved run by run, and judge the second against the first by each metric's bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments: baseline, candidate")
	flag.BoolVar(&o.smoke, "smoke", false, "shrunken run (small world, one loop, short steps): checks only, numbers not comparable")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files: baseline candidate")
		}
		a, err := readFile(args[0])
		if err != nil {
			return err
		}
		b, err := readFile(args[1])
		if err != nil {
			return err
		}
		if !compareSets(os.Stdout, a, b) {
			return fmt.Errorf("candidate breaches a bound")
		}
		return nil
	}
	if o.seconds < 1 || o.seconds > 60 {
		return fmt.Errorf("-seconds %d outside 1..60", o.seconds)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if o.workload != "" && !slices.Contains(workloads, o.workload) {
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloads)
	}
	p := plan{seconds: o.seconds, smoke: o.smoke}
	var results []*Result
	var line string
	switch {
	case o.aa:
		// The two sets are interleaved run by run, and which of the pair goes
		// first alternates: the sizing VM's speed drifts by 10-15% over tens
		// of minutes, which two sets run one after the other would read as a
		// difference between them.
		var sets [2][]*Result
		for _, w := range workloads {
			if o.workload != "" && w != o.workload {
				continue
			}
			for i := 0; i < aaPairs; i++ {
				seed := o.seed + int64(i)
				for j := range sets {
					s := (i + j) % 2
					res, err := runIsolated(w, seed, o.seconds)
					if err != nil {
						return err
					}
					fmt.Printf("set %c %s seed %d done\n", 'A'+s, w, seed)
					sets[s] = append(sets[s], res)
				}
			}
		}
		if o.out != "" {
			if err := writeFile(o.out, append(sets[0], sets[1]...)); err != nil {
				return err
			}
		}
		if !compareSets(os.Stdout, sets[0], sets[1]) {
			return fmt.Errorf("set B breaches a bound against set A")
		}
		return nil
	case o.all:
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				res, err := runWorkload(root, workDir, w, o.seed, p, traced, os.Stdout)
				if err != nil {
					return err
				}
				results = append(results, res)
			}
		}
	case o.workload != "":
		res, err := runWorkload(root, workDir, o.workload, o.seed, p, o.trace != 0, os.Stdout)
		if err != nil {
			return err
		}
		results = append(results, res)
		if line, err = res.contractLine(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("nothing to do: give -workload, -all, -aa or -compare")
	}
	if o.out != "" {
		if err := writeFile(o.out, results); err != nil {
			return err
		}
	}
	// The contract's line is the last thing on standard output.
	if line != "" {
		fmt.Println(line)
	}
	for _, res := range results {
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
		}
	}
	return nil
}

// runWorkload is one run from a cold rig to a finished result: every
// child it starts is dead and every file it wrote is gone on return.
func runWorkload(root, work, workload string, seed int64, p plan, traced bool, w io.Writer) (res *Result, err error) {
	r, err := newRig(root, work, workloadTimeout)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	res = &Result{Workload: workload, Seed: seed, Seconds: p.seconds, Traced: traced, Smoke: p.smoke, Machine: machine()}
	ctx := context.Background()
	switch {
	case traced:
		err = tracedRun(r, p, seed, res)
	case workload == "world-cold":
		err = worldCold(r, p, seed, res)
	case workload == "sweep-warm":
		err = sweepWarm(r, p, res)
	case workload == "serve-saturate":
		err = serveSaturate(ctx, r, p, seed, res)
	case workload == "fleet-paced":
		err = fleetPaced(ctx, r, p, seed, res)
	default:
		err = fmt.Errorf("no such workload")
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	res.finish()
	res.print(w)
	return res, nil
}

// runIsolated runs one workload in a fresh copy of this program, the
// way the benchmark's driver does: a harness that has already held ten
// feeds and reference engines collects garbage on the two cores the SUT
// is being measured on.
func runIsolated(workload string, seed int64, seconds int) (*Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	out := filepath.Join(workDir, fmt.Sprintf("aa-%s-%d.json", workload, seed))
	defer os.Remove(out)
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-out", out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	results, err := readFile(out)
	if err != nil || len(results) != 1 {
		return nil, fmt.Errorf("%s seed %d: run failed (%v) and left no result: %v", workload, seed, runErr, err)
	}
	return results[0], nil
}

// repoRoot walks up from the working directory to the module root: the
// binaries under test are built from its cmd/ tree.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "wormwatchd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod with cmd/wormwatchd above the working directory: run from inside the repository")
		}
		dir = parent
	}
}
