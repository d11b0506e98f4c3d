package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bgpworms/internal/collector"
	"bgpworms/internal/core"
	"bgpworms/internal/gen"
	"bgpworms/internal/obs"
)

// TestMain doubles as the worms binary: with WORMS_HELPER set the test
// binary runs main() on its own arguments, so the tests below see the
// real flag parsing, exit codes and stdout.
func TestMain(m *testing.M) {
	if os.Getenv("WORMS_HELPER") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runWorms(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WORMS_HELPER=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// writeTinyArchives builds the tiny world and writes one
// updates.<collector>.mrt per collector into a fresh directory, the
// layout genesis produces.
func writeTinyArchives(t *testing.T) (*gen.Internet, string) {
	t.Helper()
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range w.Collectors {
		f, err := os.Create(filepath.Join(dir, "updates."+c.Name+".mrt"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteUpdatesMRT(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return w, dir
}

// TestMRTReportMatchesDirectAnalysis pins what `worms -mrt DIR` prints:
// the bytes-on-disk entry (StreamMRTDir) must render exactly what the
// in-memory entry (FromCollectors → Analyze) renders for the same
// world, collectors taken in the archives' sorted file-name order and
// no blackhole registry (an archive carries none).
func TestMRTReportMatchesDirectAnalysis(t *testing.T) {
	w, dir := writeTinyArchives(t)
	got, stderr, err := runWorms("-mrt", dir)
	if err != nil {
		t.Fatalf("worms -mrt: %v\n%s", err, stderr)
	}
	cs := append([]*collector.Collector(nil), w.Collectors...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	var want bytes.Buffer
	printAnalysis(&want, core.NewPipeline(0).Analyze(core.FromCollectors(cs), nil))
	if got != want.String() {
		t.Fatalf("worms -mrt diverges from Analyze over the same world:\n--- direct ---\n%s\n--- -mrt ---\n%s", want.String(), got)
	}
}

// TestStreamFlagIsGone: -mrt has one loader, so the flag that used to
// choose between two is refused by the flag package, not ignored.
func TestStreamFlagIsGone(t *testing.T) {
	stdout, stderr, err := runWorms("-mrt", t.TempDir(), "-stream")
	if err == nil {
		t.Fatalf("worms -mrt DIR -stream exited zero; stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "flag provided but not defined: -stream") {
		t.Fatalf("stderr lacks the flag package's refusal:\n%s", stderr)
	}
}

// TestTraceSpansCarryHeap: every -trace span records the heap at its end
// as heap_mb and the memory the runtime keeps from the OS as retained_mb
// (never below heap_mb, whose objects it counts), so a memory peak can
// be put down to a phase, and tracing leaves the report byte-for-byte as
// it is. The world's phases are the partitioned ones: plan, converge
// (naming its partition count) and analyze, which folds the partitions'
// records with no merge between them.
func TestTraceSpansCarryHeap(t *testing.T) {
	args := []string{"-scale", "tiny", "-evolution=false"}
	plain, stderr, err := runWorms(args...)
	if err != nil {
		t.Fatalf("worms: %v\n%s", err, stderr)
	}
	out := filepath.Join(t.TempDir(), "trace.json")
	traced, stderr, err := runWorms(append(args, "-trace", out)...)
	if err != nil {
		t.Fatalf("worms -trace: %v\n%s", err, stderr)
	}
	if traced != plain {
		t.Fatal("the traced report differs from the untraced one")
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.TraceRecord
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
		heap, err := strconv.ParseFloat(sp.Attrs["heap_mb"], 64)
		if err != nil || heap <= 0 {
			t.Errorf("span %s: heap_mb %q", sp.Name, sp.Attrs["heap_mb"])
		}
		if kept, err := strconv.ParseFloat(sp.Attrs["retained_mb"], 64); err != nil || kept < heap {
			t.Errorf("span %s: retained_mb %q with heap_mb %q", sp.Name, sp.Attrs["retained_mb"], sp.Attrs["heap_mb"])
		}
	}
	if want := []string{"plan", "converge", "analyze", "render"}; !slices.Equal(names, want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	if k, err := strconv.Atoi(tr.Spans[1].Attrs["partitions"]); err != nil || k < 1 {
		t.Errorf("converge span: partitions %q", tr.Spans[1].Attrs["partitions"])
	}
}

// buildCmds builds sibling commands into a temp dir and returns a runner
// for them. The siblings are other package mains, so unlike worms they
// cannot ride this test binary.
func buildCmds(t *testing.T, names ...string) func(name string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	pkgs := make([]string, len(names))
	for i, n := range names {
		pkgs[i] = "bgpworms/cmd/" + n
	}
	if out, err := exec.Command("go", append([]string{"build", "-o", dir + string(filepath.Separator)}, pkgs...)...).CombinedOutput(); err != nil {
		t.Fatalf("go build %v: %v\n%s", pkgs, err, out)
	}
	return func(name string, args ...string) (string, string, error) {
		cmd := exec.Command(filepath.Join(dir, name), args...)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		err := cmd.Run()
		return out.String(), errb.String(), err
	}
}

// TestArchivePipelineEndToEnd drives the path the README walks and no
// other test runs through the shipped flag parsing: genesis writes
// archives, bgpcat decodes every record genesis said it wrote, commdict
// infers a dictionary from them, worms analyses them.
func TestArchivePipelineEndToEnd(t *testing.T) {
	run := buildCmds(t, "genesis", "bgpcat", "commdict", "wormwatchd")
	dir := filepath.Join(t.TempDir(), "data")

	wrote, stderr, err := run("genesis", "-scale", "tiny", "-out", dir)
	if err != nil {
		t.Fatalf("genesis: %v\n%s", err, stderr)
	}
	archives := 0
	for _, line := range strings.Split(wrote, "\n") {
		var path string
		var records int
		if n, _ := fmt.Sscanf(line, "wrote %s (%d records)", &path, &records); n != 2 || !strings.Contains(path, "updates.") {
			continue
		}
		archives++
		out, stderr, err := run("bgpcat", path)
		if err != nil {
			t.Fatalf("bgpcat %s: %v\n%s", path, err, stderr)
		}
		if want := fmt.Sprintf("# %s: %d records\n", path, records); !strings.HasSuffix(out, want) {
			t.Fatalf("bgpcat %s does not end in %q:\n…%s", path, want, out[max(0, len(out)-200):])
		}
	}
	if archives == 0 {
		t.Fatalf("genesis reported no update archives:\n%s", wrote)
	}

	var dict struct {
		Stats   struct{ Processed, Communities int }
		Entries []struct{ Name string }
	}
	commdictJSON := func(args ...string) {
		t.Helper()
		out, stderr, err := run("commdict", append([]string{"-mrt", dir, "-json"}, args...)...)
		if err != nil {
			t.Fatalf("commdict %v: %v\n%s", args, err, stderr)
		}
		dict.Entries = nil
		if err := json.Unmarshal([]byte(out), &dict); err != nil {
			t.Fatalf("commdict %v: %v\n%s", args, err, out)
		}
	}
	commdictJSON()
	if len(dict.Entries) == 0 || dict.Stats.Communities != len(dict.Entries) || dict.Stats.Processed == 0 {
		t.Fatalf("commdict -mrt: %d entries, stats %+v", len(dict.Entries), dict.Stats)
	}
	all := len(dict.Entries)
	var asn string
	for _, e := range dict.Entries {
		// Well-known communities print by name; take a numeric one.
		if a, _, ok := strings.Cut(e.Name, ":"); ok && strings.Trim(a, "0123456789") == "" {
			asn = a
			break
		}
	}
	commdictJSON("-asn", asn)
	if len(dict.Entries) == 0 || len(dict.Entries) >= all {
		t.Fatalf("commdict -asn %s: %d of %d entries", asn, len(dict.Entries), all)
	}
	for _, e := range dict.Entries {
		if !strings.HasPrefix(e.Name, asn+":") {
			t.Fatalf("commdict -asn %s printed %s", asn, e.Name)
		}
	}
	// 65546 is 10 mod 65536: it must be refused, not answered as AS10.
	if out, stderr, err := run("commdict", "-mrt", dir, "-asn", "65546"); err == nil || !strings.Contains(stderr, "-asn 65546") {
		t.Fatalf("commdict -asn 65546: err=%v stderr=%q stdout:\n%s", err, stderr, out)
	}

	for _, gone := range [][]string{{"commdict", "-workers"}, {"wormwatchd", "-dict-workers"}} {
		_, stderr, err := run(gone[0], gone[1], "2")
		if err == nil || !strings.Contains(stderr, "flag provided but not defined: "+gone[1]) {
			t.Fatalf("%s %s 2: err=%v, stderr lacks the flag package's refusal:\n%s", gone[0], gone[1], err, stderr)
		}
	}

	report, stderr, err := runWorms("-mrt", dir)
	if err != nil || !strings.Contains(report, "Table 1") {
		t.Fatalf("worms -mrt: %v\n%s\n%s", err, stderr, report)
	}
}
