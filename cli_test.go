package bgpworms

// The command-line contract of the eight binaries, driven through their
// real main functions: what each refuses before doing any work (a bare
// word where only flags are read, a flag the chosen mode would silently
// ignore, an archive handed to -feed-listen), and one offline reshard of
// directories two real shard daemons wrote. The binaries are built once.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

var mainNames = []string{"attacklab", "bgpcat", "commdict", "genesis", "suiterun", "walreshard", "worms", "wormwatchd"}

func TestCLI(t *testing.T) {
	bin := t.TempDir()
	pkgs := make([]string, len(mainNames))
	for i, n := range mainNames {
		pkgs[i] = "./cmd/" + n
	}
	if out, err := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...).CombinedOutput(); err != nil {
		t.Fatalf("go build %v: %v\n%s", pkgs, err, out)
	}
	t.Run("refusals", func(t *testing.T) { testRefusals(t, bin) })
	t.Run("retired flags", func(t *testing.T) { testRetiredFlags(t, bin) })
	t.Run("world defaults", func(t *testing.T) { testWorldDefaults(t, bin) })
	t.Run("walreshard", func(t *testing.T) { testReshardOfRealShards(t, bin) })
}

// run executes one binary in dir to completion. A refusal the binary
// fails to make would otherwise start a daemon, so every run is bounded.
func run(t *testing.T, dir, bin, name string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(bin, name), args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("%s %v was still running after 60s; stderr:\n%s", name, args, errb.String())
	}
	return out.String(), errb.String(), err
}

func testRefusals(t *testing.T, bin string) {
	const archive = "updates.rrc00.mrt"
	for _, c := range []struct {
		name   string
		args   []string
		stderr string   // must appear on stderr; "" means the run must succeed
		absent []string // must not exist in the working directory afterwards
	}{
		// Go's flag package stops at the first bare word, so everything
		// after it used to be ignored and the defaults ran instead.
		{"worms", []string{"medium", "-seed", "3"}, `unexpected argument "medium"`, nil},
		{"attacklab", []string{"rtbh", "-list"}, `unexpected argument "rtbh"`, nil},
		{"commdict", []string{"rtbh", "-scenario", "rtbh"}, `unexpected argument "rtbh"`, nil},
		{"genesis", []string{"tiny", "-out", "d"}, `unexpected argument "tiny"`, []string{"d", "data"}},
		{"suiterun", []string{"suite.json", "-out", "d"}, `unexpected argument "suite.json"`, []string{"d"}},
		{"walreshard", []string{"a", "-from", "a", "-to", "b"}, `unexpected argument "a"`, []string{"b"}},
		{"wormwatchd", []string{"rtbh", "-wal", "d"}, `unexpected argument "rtbh"`, []string{"d"}},
		// Flags the chosen mode would not read.
		{"wormwatchd", []string{"-follow"}, "-follow", nil},
		{"wormwatchd", []string{"-frontend", "http://127.0.0.1:1", "-wal", "d"}, "-frontend", []string{"d"}},
		{"wormwatchd", []string{"-frontend", "http://127.0.0.1:1", "-scenario", "rtbh"}, "-frontend", nil},
		{"wormwatchd", []string{"-frontend", "http://127.0.0.1:1", "-shards", "2"}, "-frontend", nil},
		{"wormwatchd", []string{"-addr", "127.0.0.1:0", "-frontend", "http://127.0.0.1:1", "-pprof"}, "-frontend", nil},
		{"worms", []string{"-mrt", "d", "-scale", "medium"}, "reads no -scale", nil},
		{"worms", []string{"-mrt", "d", "-seed", "7"}, "reads no -seed", nil},
		{"commdict", []string{"-mrt", archive, "-scale", "medium"}, "reads no -scale", nil},
		{"commdict", []string{"-mrt", archive, "-seed", "7"}, "reads no -seed", nil},
		{"attacklab", []string{"-sweep", "-scale", "medium", "-seed", "7", "-set", "all", "-scenarios", "propagation-distance"}, "does not read -scale", nil},
		{"attacklab", []string{"-sweep", "-seed", "7"}, "does not read -seed", nil},
		{"attacklab", []string{"-sweep", "-set", "all"}, "does not read -set", nil},
		{"attacklab", []string{"-sweep", "-run", "rtbh"}, "does not read -run", nil},
		{"attacklab", []string{"-sweep", "-scenarios", "rtbh", "-sets", "verifed"}, `unknown community set "verifed"`, nil},
		{"attacklab", []string{"-run", "rtbh", "-set", "verifed"}, `unknown community set "verifed"`, nil},
		{"attacklab", []string{"-run", "rtbh", "-scales", "small"}, "-scales is read only by -sweep", nil},
		{"attacklab", []string{"-run", "rtbh", "-seeds", "1,2"}, "-seeds is read only by -sweep", nil},
		{"attacklab", []string{"-run", "rtbh", "-engine-workers", "4"}, "-engine-workers is read only by -sweep", nil},
		{"attacklab", []string{"-run", "rtbh", "-engines", "delta"}, "-engines is read only by -sweep", nil},
		{"attacklab", []string{"-sets", "all"}, "-sets is read only by -sweep", nil},
		{"attacklab", []string{"-scenarios", "rtbh"}, "-scenarios is read only by -sweep", nil},
		{"attacklab", []string{"-workers", "4"}, "-workers is read only by -sweep", nil},
		{"attacklab", []string{"-trace", "t.json"}, "-trace is read only by -sweep", []string{"t.json"}},
		{"genesis", []string{"-sample-rel", archive, "-scale", "medium", "-out", "d"}, "does not read -scale", []string{"d"}},
		{"genesis", []string{"-sample-rel", archive, "-workers", "2", "-out", "d"}, "does not read -workers", []string{"d"}},
		{"genesis", []string{"-sample-size", "100", "-out", "d"}, "-sample-size is read only by -sample-rel", []string{"d", "data"}},
		{"wormwatchd", []string{"-addr", "127.0.0.1:0", "-scale", "medium", "-wal", "d"}, "there is no -scenario", []string{"d"}},
		{"wormwatchd", []string{"-addr", "127.0.0.1:0", "-mrt", archive, "-seed", "7", "-wal", "d"}, "there is no -scenario", []string{"d"}},
		// A world the presets do not name.
		{"wormwatchd", []string{"-addr", "127.0.0.1:0", "-scale", "galactic", "-wal", "d"}, `unknown scale "galactic"`, []string{"d"}},
		// Shard URLs the frontend could never fetch.
		{"wormwatchd", []string{"-addr", "127.0.0.1:0", "-frontend", "http://127.0.0.1:1,"}, "-frontend", nil},
		{"wormwatchd", []string{"-addr", "127.0.0.1:0", "-frontend", "127.0.0.1:8581"}, "-frontend", nil},
		// A detector the configuration cannot run: the dictionary pair
		// with inference switched off.
		{"wormwatchd", []string{"-dict=false", "-detectors", "dict-squat", "-wal", "d"}, `detector "dict-squat" needs a dictionary`, []string{"d"}},
		// The argument meant for -mrt: refused, and not unlinked.
		{"wormwatchd", []string{"-feed-listen", "./" + archive, "-wal", "d"}, "not a socket", []string{"d"}},
		// bgpcat is the one binary that takes operands; the rest of the
		// table shows it is not refusing them.
		{"bgpcat", []string{archive}, "", nil},
		{"bgpcat", []string{"-follow"}, "-follow tails a file", nil},
		{"attacklab", []string{"-list"}, "", nil},
		// The sweep the benchmark runs, on a one-cell grid.
		{"attacklab", []string{"-sweep", "-json", "-v", "-engines", "delta", "-workers", "2", "-scales", "tiny", "-seeds", "1", "-scenarios", "rtbh"}, "", nil},
	} {
		t.Run(c.name+" "+strings.Join(c.args, " "), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, archive), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			_, stderr, err := run(t, dir, bin, c.name, c.args...)
			if c.stderr == "" {
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr)
				}
			} else if err == nil || !strings.Contains(stderr, c.stderr) {
				t.Fatalf("err=%v, stderr lacks %q:\n%s", err, c.stderr, stderr)
			} else if n := strings.Count(strings.TrimSpace(stderr), "\n"); n > 0 {
				t.Fatalf("the refusal is %d lines, want one:\n%s", n+1, stderr)
			}
			for _, p := range c.absent {
				if _, err := os.Lstat(filepath.Join(dir, p)); err == nil {
					t.Errorf("%s was created before the command line was refused", p)
				}
			}
			if fi, err := os.Lstat(filepath.Join(dir, archive)); err != nil || !fi.Mode().IsRegular() {
				t.Fatalf("%s did not survive as a regular file: %v", archive, err)
			}
		})
	}
}

// testRetiredFlags: a flag that is gone is an error, not a no-op.
// suiterun's -update-baseline went with the implicit comparison it fed;
// -ab compares two reports explicitly.
func testRetiredFlags(t *testing.T, bin string) {
	_, stderr, err := run(t, t.TempDir(), bin, "suiterun", "-suite", "suite.json", "-update-baseline")
	if err == nil || !strings.Contains(stderr, "flag provided but not defined: -update-baseline") {
		t.Fatalf("suiterun -update-baseline: err=%v\n%s", err, stderr)
	}
}

// testWorldDefaults: a scenario replay with no -scale/-seed replays the
// world the flags' defaults name, byte for byte.
func testWorldDefaults(t *testing.T, bin string) {
	dir := t.TempDir()
	bare, stderr, err := run(t, dir, bin, "commdict", "-scenario", "rtbh", "-json")
	if err != nil || !strings.Contains(bare, `"entries"`) {
		t.Fatalf("commdict -scenario rtbh -json: %v\n%s", err, stderr)
	}
	named, stderr, err := run(t, dir, bin, "commdict", "-scenario", "rtbh", "-json", "-scale", "tiny", "-seed", "1")
	if err != nil {
		t.Fatalf("commdict -scale tiny -seed 1: %v\n%s", err, stderr)
	}
	if bare != named {
		t.Fatalf("the default flags replay a different world than -scale tiny -seed 1 (%d vs %d bytes)", len(bare), len(named))
	}
}

// daemon is one wormwatchd process whose log is scanned for milestones.
type daemon struct {
	cmd   *exec.Cmd
	lines chan string // every stderr line, closed at EOF
	log   strings.Builder
}

func startDaemon(t *testing.T, dir, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(filepath.Join(bin, "wormwatchd"), args...), lines: make(chan string, 64)}
	d.cmd.Dir = dir
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })
	go func() {
		defer close(d.lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
	}()
	return d
}

// waitLog consumes the log up to the first line containing want.
func (d *daemon) waitLog(t *testing.T, want string) string {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case line, ok := <-d.lines:
			if !ok {
				t.Fatalf("wormwatchd exited before logging %q:\n%s", want, d.log.String())
			}
			fmt.Fprintln(&d.log, line)
			if strings.Contains(line, want) {
				return line
			}
		case <-deadline:
			t.Fatalf("wormwatchd never logged %q:\n%s", want, d.log.String())
		}
	}
}

// stop shuts the daemon down the graceful way and requires a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range d.lines {
		fmt.Fprintln(&d.log, line)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("wormwatchd after SIGTERM: %v\n%s", err, d.log.String())
	}
}

// testReshardOfRealShards: two shard daemons replay a scenario and shut
// down gracefully; walreshard scatters their directories into three; a
// daemon of the new fleet recovers from what it was given with no feed
// at all; and a second reshard into the now-used directories is refused.
func testReshardOfRealShards(t *testing.T, bin string) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		d := startDaemon(t, dir, bin, "-addr", "127.0.0.1:0", "-scenario", "rtbh", "-dict=false",
			"-shards", "2", "-shard-index", fmt.Sprint(i), "-wal", fmt.Sprintf("s%d", i), "-fsync", "5ms")
		d.waitLog(t, "scenario rtbh success=")
		d.stop(t)
		if !strings.Contains(d.log.String(), "final checkpoint at seq") {
			t.Fatalf("shard %d left no final checkpoint:\n%s", i, d.log.String())
		}
	}

	stdout, stderr, err := run(t, dir, bin, "walreshard", "-from", "s0,s1", "-to", "t0,t1,t2")
	if err != nil || !strings.Contains(stdout, "resharded 2 -> 3 shards") {
		t.Fatalf("walreshard 2 -> 3: %v\n%s\n%s", err, stdout, stderr)
	}
	t.Logf("%s", stdout)
	for i := 0; i < 3; i++ {
		if snaps, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("t%d", i), "snap-*.ckpt")); len(snaps) != 1 {
			t.Fatalf("t%d holds %d checkpoints, want 1; walreshard said:\n%s", i, len(snaps), stdout)
		}
	}

	d := startDaemon(t, dir, bin, "-addr", "127.0.0.1:0", "-dict=false", "-shards", "3", "-shard-index", "0", "-wal", "t0")
	recovered := d.waitLog(t, "durable: recovered seq")
	if strings.Contains(recovered, "recovered seq 0 ") {
		t.Fatalf("the resharded directory recovered nothing: %s", recovered)
	}
	d.waitLog(t, "listening on http://")
	d.stop(t)

	if _, stderr, err := run(t, dir, bin, "walreshard", "-from", "s0,s1", "-to", "t0,t1,t2"); err == nil {
		t.Fatalf("walreshard wrote into directories a daemon has used:\n%s", stderr)
	}
}
