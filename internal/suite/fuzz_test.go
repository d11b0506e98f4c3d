package suite

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpus returns the checked-in seed inputs under testdata/fuzz: one
// valid suite plus the malformed shapes a gate must reject loudly.
func corpus(t testing.TB) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "fuzz"))
	if err != nil {
		t.Fatalf("read corpus: %v", err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		out[e.Name()] = data
	}
	if len(out) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	return out
}

// TestCorpusOutcomes pins each corpus file's Parse outcome: the valid
// seed parses, every malformed one errors (and, per the fuzz target,
// never panics). This keeps the corpus honest even when fuzzing is
// not run.
func TestCorpusOutcomes(t *testing.T) {
	for name, data := range corpus(t) {
		_, err := Parse(data)
		if strings.HasPrefix(name, "valid") {
			if err != nil {
				t.Errorf("%s: Parse = %v, want success", name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Parse accepted a malformed suite", name)
		}
	}
}

// FuzzSuiteFile hammers Parse with mutated suite files. The contract
// under fuzz: never panic, and anything that parses must survive grid
// expansion and re-validation — a malformed suite must never reach the
// gate looking like a passing one.
func FuzzSuiteFile(f *testing.F) {
	for _, data := range corpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted a suite Validate rejects: %v", err)
		}
		for i := range s.Entries {
			if cells, err := s.grid(&s.Entries[i]).Cells(); err != nil || len(cells) == 0 {
				t.Fatalf("valid suite entry %d expanded to %d cells: %v", i, len(cells), err)
			}
		}
		if got := s.Scenarios(); len(got) == 0 {
			t.Fatal("valid suite covers zero scenarios")
		}
	})
}
