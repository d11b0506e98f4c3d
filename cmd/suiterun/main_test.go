package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain doubles as the suiterun binary: with SUITERUN_HELPER set the
// test binary runs main() on its own arguments, so the test below sees
// the real flag parsing, exit codes and files.
func TestMain(m *testing.M) {
	if os.Getenv("SUITERUN_HELPER") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestOutDirNeedNotExist runs the first step of the A/B workflow in the
// command's doc comment — `suiterun -suite S -out old/` — into a
// directory nobody made, and expects both files there.
func TestOutDirNeedNotExist(t *testing.T) {
	out := filepath.Join(t.TempDir(), "old", "arm")
	cmd := exec.Command(os.Args[0], "-suite", "../../internal/suite/testdata/golden/tiny_suite.json", "-out", out)
	cmd.Env = append(os.Environ(), "SUITERUN_HELPER=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("suiterun -out %s: %v\n%s", out, err, stderr.String())
	}
	for _, name := range []string{"suite_report.json", "provenance.json"} {
		if info, err := os.Stat(filepath.Join(out, name)); err != nil || info.Size() == 0 {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
