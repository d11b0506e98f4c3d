package bgpworms

// The scale probe. Performance is measured by bench/ (bash bench/run.sh,
// go run ./bench -compare); this one loop stays a `go test` benchmark
// because a paper-scale build does not fit inside bench/'s per-run time
// cap. Run with `make scale-probe`.

import (
	"fmt"
	"runtime"
	"testing"

	"bgpworms/internal/gen"
)

// BenchmarkLargeWorldBuild builds and converges the paper-scale presets:
// large (~10k ASes) and internet (~63k ASes, the study's April 2018 AS
// count, degree-skewed), each on one worker and on one per CPU. One
// benchtime-1x iteration in CI is the standing proof that a full
// internet-scale world builds and converges on the CI box; at 1x the
// pair shows a direction, not a measured speed-up.
func BenchmarkLargeWorldBuild(b *testing.B) {
	arms := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		arms = append(arms, n)
	}
	for _, scale := range []string{"large", "internet"} {
		for _, workers := range arms {
			b.Run(fmt.Sprintf("%s/workers=%d", scale, workers), func(b *testing.B) {
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p, err := gen.Preset(scale)
					if err != nil {
						b.Fatal(err)
					}
					p.Workers = workers
					w, err := gen.Build(p)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := w.RunChurn(); err != nil {
						b.Fatal(err)
					}
					if got := w.Graph.NumASes(); got < 10000 {
						b.Fatalf("ases=%d, want a paper-scale world", got)
					}
					b.ReportMetric(float64(w.Graph.NumASes()), "ases")
					b.ReportMetric(float64(w.Net.Steps()), "deliveries")
					b.ReportMetric(float64(len(w.AllPrefixes())), "prefixes")
				}
			})
		}
	}
}
