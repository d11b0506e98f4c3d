package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bgpworms/internal/collector"
	"bgpworms/internal/core"
	"bgpworms/internal/gen"
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
