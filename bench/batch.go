package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bgpworms/bench/stats"
)

// plan sizes a run from the -seconds budget (or shrinks it for -smoke).
type plan struct {
	seconds int
	smoke   bool
}

// scale is the world the batch workloads build; smoke runs shrink it.
func (p plan) scale() string {
	if p.smoke {
		return "small"
	}
	return "medium"
}

// feedScale is the world the serving feed is captured from. A medium
// world costs 17 s of set-up per run (13.5 s to build and churn it, 3 s
// to capture), which four workloads inside the contract's time cap
// cannot afford twice; the small world costs 1.5 s, and looping it
// through feed.Universes prefix universes gives the daemons the ten
// thousand tracked prefixes a medium world would.
const feedScale = "small"

// worldRepeats is how many times worms runs: one medium world takes
// 12-14 s on the sizing machine, and one run cannot show that its output
// is reproducible, so never fewer than two. A third bought nothing: the
// machine's speed drifts over minutes, not between neighbouring repeats
// (interquartile spread over ten seeds 6.9% and 8.5% with two, 10.8%
// with three).
func (p plan) worldRepeats() int {
	if n := p.seconds / 12; n > 2 && !p.smoke {
		return n
	}
	return 2
}

// setupRounds is how many times a workload sets up. A cached go build, a
// small world and a daemon start take 0.2-1.3 s, too short for one
// reading to be steady, and the first round also warms the file cache.
func (p plan) setupRounds() int {
	if p.smoke {
		return 1
	}
	return 3
}

// timeSetup runs the workload's set-up setupRounds times and reports the
// median as setup_s. Each call of fn discards what the call before it
// made and leaves its own products in place.
func timeSetup(p plan, res *Result, fn func() error) error {
	var took []float64
	for i := 0; i < p.setupRounds(); i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return err
		}
		took = append(took, time.Since(t).Seconds())
	}
	res.set("setup_s", stats.Median(took), repeats(took))
	return nil
}

// sweepRepeats is how many times the full grid runs (15-20 s each).
// Two, so that the report's hash has another to equal, and because one
// sweep's peak RSS lands anywhere between the live heap and twice it,
// depending on where the collector's cycle stood when two medium cells
// overlapped: 1.7-2.6 GB, an interquartile spread of 24% over ten
// single sweeps.
func (p plan) sweepRepeats() int { return max(2, p.seconds/15) }

func wormsArgs(p plan, seed int64) []string {
	return []string{"-scale", p.scale(), "-engine", "delta", "-workers", strconv.Itoa(runtime.NumCPU()), "-seed", strconv.FormatInt(seed, 10)}
}

// worldCold is the researcher's batch job: the shipped worms binary from
// flags to the complete §4 report.
func worldCold(r *rig, p plan, seed int64, res *Result) error {
	if err := timeSetup(p, res, func() error { return r.build("worms") }); err != nil {
		return err
	}

	args := wormsArgs(p, seed)
	res.Config = map[string]string{"command": "worms " + strings.Join(args, " ")}
	var wall, cpu, rss []float64
	var first string
	for i := 0; i < p.worldRepeats(); i++ {
		sha, _, _, u, err := r.runBatch("worms", args...)
		res.Attempted++
		if err != nil {
			return err
		}
		wall, cpu, rss = append(wall, u.Wall.Seconds()), append(cpu, u.CPU.Seconds()), append(rss, u.RSSMiB)
		if i == 0 {
			first = sha
		} else if sha != first {
			res.fail(1, "repeat %d printed sha256 %s, repeat 0 printed %s", i, sha, first)
		}
	}
	res.Config["stdout_sha256"] = first
	res.set("wall_s", stats.Median(wall), repeats(wall))
	res.set("cpu_s", stats.Median(cpu), repeats(cpu))
	res.set("peak_rss_mb", stats.Median(rss), repeats(rss))
	return nil
}

// sweepScenarios is every registered scenario that fits: blackhole-sweep
// and hygiene-filtering run 50-60 s per medium cell and would be the
// whole workload.
const sweepScenarios = "propagation-distance,route-leak-amplification,route-manipulation,rtbh,selective-prepend,steering-localpref,steering-prepend"

// sweepSeed is the generator seed of the grid's worlds, whatever the
// run's -seed. A sweep's seed draws the worlds and each scenario's
// attacker and victim, and with them the amount of work: interleaved
// runs of seeds 1, 2, 5 and 10 took 21.4, 21.0, 21.5 and 24.5 s of CPU
// (five each, every one within 6% of its seed's mean), and seeds 1-10
// spread 23% between the quartiles where ten runs of seed 1 spread 7%.
// rtbh also refuses some worlds ("no RTBH target beyond one hop": medium
// seeds 9 and 11 of the first 34), so the seed would decide whether a
// run has a failed operation. The grid is therefore the same on every
// run, as the serving feed's world is, and -seed only names the run.
const sweepSeed = 1

// sweepScales are the grid's world sizes, largest last.
func (p plan) sweepScales() string {
	if p.smoke {
		return "tiny,small"
	}
	return "small,medium"
}

func sweepArgs(scales string) []string {
	return []string{"-sweep", "-json", "-v", "-engines", "delta", "-workers", strconv.Itoa(runtime.NumCPU()),
		"-scales", scales, "-seeds", strconv.Itoa(sweepSeed), "-scenarios", sweepScenarios}
}

var cellLine = regexp.MustCompile(`(?m)^\[\d+/\d+\] \S+ seed=\d+ \(([^)]+)\)$`)

// sweepReport is the part of attacklab's sweep JSON the harness reads.
type sweepReport struct {
	Ran     int `json:"ran"`
	Errored int `json:"errored"`
}

// sweepWarm runs the attack grid on frozen, forked worlds: the same
// simulator layers as world-cold, used through freeze, fork and
// clone-on-write instead of one long convergence.
func sweepWarm(r *rig, p plan, res *Result) error {
	if err := timeSetup(p, res, func() error { return r.build("attacklab") }); err != nil {
		return err
	}

	args := sweepArgs(p.sweepScales())
	res.Config = map[string]string{"command": "attacklab " + strings.Join(args, " ")}
	var wall, cpu, rss, p50, tail []float64
	var first string
	cells := 0
	for i := 0; i < p.sweepRepeats(); i++ {
		sha, out, progress, u, err := r.runBatch("attacklab", args...)
		if err != nil {
			return err
		}
		var rep sweepReport
		if err := json.Unmarshal(out, &rep); err != nil {
			return fmt.Errorf("sweep report: %w", err)
		}
		res.Attempted += int64(rep.Ran)
		if rep.Errored > 0 {
			res.fail(int64(rep.Errored), "repeat %d: %d of %d cells errored", i, rep.Errored, rep.Ran)
		}
		var cellMS []float64
		for _, m := range cellLine.FindAllStringSubmatch(progress, -1) {
			d, err := time.ParseDuration(m[1])
			if err != nil {
				return fmt.Errorf("cell progress line %q: %w", m[0], err)
			}
			cellMS = append(cellMS, stats.Milliseconds(d))
		}
		if len(cellMS) != rep.Ran {
			return fmt.Errorf("sweep reported %d cells but logged %d", rep.Ran, len(cellMS))
		}
		wall, cpu, rss = append(wall, u.Wall.Seconds()), append(cpu, u.CPU.Seconds()), append(rss, u.RSSMiB)
		p50, tail = append(p50, stats.Median(cellMS)), append(tail, stats.Percentile(cellMS, 100))
		if i == 0 {
			first, cells = sha, rep.Ran
		} else if sha != first {
			res.fail(1, "repeat %d reported sha256 %s, repeat 0 reported %s", i, sha, first)
		}
	}

	res.Config["report_sha256"] = first
	res.Config["cells"] = strconv.Itoa(cells)
	res.set("wall_s", stats.Median(wall), repeats(wall))
	res.set("cpu_s", stats.Median(cpu), repeats(cpu))
	res.set("peak_rss_mb", stats.Median(rss), repeats(rss))
	// How the grid's cells spread is reported beside its wall, not judged:
	// the median of seven small and seven medium cells falls in the gap
	// between the two sizes (two runs of one seed differed by 30%).
	res.count("sweep.cell_p50_ms", stats.Median(p50), "ms")
	res.count("sweep.cell_max_ms", stats.Median(tail), "ms")
	return nil
}
