package suite

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"time"

	"bgpworms/internal/obs"
)

// Provenance records where a suite report came from: toolchain, commit,
// the exact suite (path plus content hash), the grid that ran, and how
// long it took. It lives in provenance.json next to suite_report.json —
// deliberately a separate file, so the report itself stays byte-stable
// across reruns and only the provenance carries wall-clock state.
type Provenance struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GitSHA    string `json:"git_sha"`
	Suite     string `json:"suite"`
	SuitePath string `json:"suite_path,omitempty"`
	// SuiteSHA256 hashes the suite file bytes, pinning exactly which
	// declaration produced the report.
	SuiteSHA256 string   `json:"suite_sha256,omitempty"`
	Arm         string   `json:"arm"`
	Scenarios   []string `json:"scenarios"`
	Scales      []string `json:"scales"`
	Seeds       []int64  `json:"seeds"`
	Cells       int      `json:"cells"`
	Workers     int      `json:"workers"`
	WallMS      int64    `json:"wall_ms"`
	// SnapshotBuilds/SnapshotForks record warm-world reuse: how many
	// frozen worlds the run built and how many cell executions forked
	// them instead of rebuilding.
	SnapshotBuilds int  `json:"snapshot_builds"`
	SnapshotForks  int  `json:"snapshot_forks"`
	Pass           bool `json:"pass"`
	// Spans is the run's per-cell timing breakdown (Options.Trace):
	// wall-clock state, which is exactly what provenance exists to
	// carry so the report itself can stay byte-stable.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// NewProvenance assembles the record for one completed run. suiteData
// may be nil when the suite was built in memory.
func NewProvenance(s *Suite, path string, suiteData []byte, rep *Report, workers int, wall time.Duration) Provenance {
	build := obs.BuildInfo()
	p := Provenance{
		Tool:           "suiterun",
		GoVersion:      build.GoVersion,
		GOOS:           build.GOOS,
		GOARCH:         build.GOARCH,
		GitSHA:         build.GitSHA,
		Suite:          s.Name,
		SuitePath:      path,
		Arm:            rep.Arm,
		Scenarios:      s.Scenarios(),
		Cells:          rep.Ran,
		Workers:        workers,
		WallMS:         wall.Milliseconds(),
		SnapshotBuilds: rep.SnapshotBuilds,
		SnapshotForks:  rep.SnapshotForks,
		Pass:           rep.Pass,
	}
	if len(suiteData) > 0 {
		sum := sha256.Sum256(suiteData)
		p.SuiteSHA256 = hex.EncodeToString(sum[:])
	}
	scales, seeds := map[string]bool{}, map[int64]bool{}
	for _, spec := range s.cells() {
		scales[spec.scale] = true
		seeds[spec.seed] = true
	}
	for sc := range scales {
		p.Scales = append(p.Scales, sc)
	}
	sort.Strings(p.Scales)
	for seed := range seeds {
		p.Seeds = append(p.Seeds, seed)
	}
	sort.Slice(p.Seeds, func(i, j int) bool { return p.Seeds[i] < p.Seeds[j] })
	return p
}
