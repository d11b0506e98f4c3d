// Command genesis builds a synthetic Internet (topology, policies, IXPs,
// collectors), simulates a month of routing churn, and writes the
// resulting measurement artifacts:
//
//	<out>/as-rel.txt            CAIDA serial-1 relationships
//	<out>/updates.<name>.mrt    per-collector BGP4MP update archives
//	<out>/rib.<name>.mrt        per-collector TABLE_DUMP_V2 snapshots
//
// Usage:
//
//	genesis -scale small -seed 1 -out ./data
//	genesis -scale internet -workers 8 -out ./data
//	genesis -sample-rel as-rel.txt -sample-size 5000 -out ./data
//
// -workers sizes the simulation engine's worker pool (0 or negative =
// one per CPU). The written archives are byte-identical for every value
// under a fixed seed.
//
// -sample-rel switches to sampler mode: read a CAIDA serial-1
// relationship file (real data or a previous genesis export), apply the
// degree-preserving sampler (topo.Sample) down to -sample-size ASes,
// and write the sampled as-rel.txt — the bridge from real 63k-AS
// relationship dumps to worlds the simulator converges quickly. It reads
// -seed and -out; -scale and -workers name a world build and are refused
// beside it, as -sample-size is without it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"bgpworms/internal/gen"
	"bgpworms/internal/topo"
)

func main() {
	world := gen.NewFlags(flag.CommandLine, "small")
	out := flag.String("out", "data", "output directory")
	workers := flag.Int("workers", 0, "simulation engine workers (0 = one per CPU); output is identical for every value")
	sampleRel := flag.String("sample-rel", "", "sampler mode: CAIDA serial-1 relationship file to downsample (skips world building)")
	sampleSize := flag.Int("sample-size", 5000, "sampler mode: target AS count")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every input is a flag, and flags after it were not read (see -h)", flag.Arg(0)))
	}
	// The sampler reads a relationship file and builds no world, so each
	// mode refuses the other's flags rather than ignore them in silence.
	flag.Visit(func(f *flag.Flag) {
		switch {
		case *sampleRel != "" && (f.Name == "scale" || f.Name == "workers"):
			fail(fmt.Errorf("-sample-rel samples a relationship file and does not read -%s", f.Name))
		case *sampleRel == "" && f.Name == "sample-size":
			fail(fmt.Errorf("-sample-size is read only by -sample-rel"))
		}
	})

	if *sampleRel != "" {
		if err := runSample(*sampleRel, *sampleSize, world.Seed, *out); err != nil {
			fail(err)
		}
		return
	}

	p, err := world.Params()
	if err != nil {
		fail(err)
	}
	p.Workers = *workers

	fmt.Printf("building %s internet (seed %d)...\n", world.Scale, p.Seed)
	w, err := gen.Build(p)
	if err != nil {
		fail(err)
	}
	rep, err := w.RunChurn()
	if err != nil {
		fail(err)
	}
	fmt.Printf("topology: %d ASes, %d links, %d prefixes\n",
		w.Graph.NumASes(), w.Graph.NumLinks(), len(w.AllPrefixes()))
	fmt.Printf("churn: %d re-announcements, %d retags, %d RTBH episodes, %d IXP-tagged\n",
		rep.Reannouncements, rep.Retagged, len(rep.RTBH), rep.IXPTagged)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}

	relPath := filepath.Join(*out, "as-rel.txt")
	rf, err := os.Create(relPath)
	if err != nil {
		fail(err)
	}
	if err := topo.WriteCAIDA(rf, w.Graph); err != nil {
		fail(err)
	}
	rf.Close()
	fmt.Println("wrote", relPath)

	for _, c := range w.Collectors {
		upath := filepath.Join(*out, fmt.Sprintf("updates.%s.mrt", c.Name))
		uf, err := os.Create(upath)
		if err != nil {
			fail(err)
		}
		n, err := c.WriteUpdatesMRT(uf)
		uf.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d records)\n", upath, n)

		rpath := filepath.Join(*out, fmt.Sprintf("rib.%s.mrt", c.Name))
		rff, err := os.Create(rpath)
		if err != nil {
			fail(err)
		}
		n, err = c.WriteRIBSnapshotMRT(rff, w.Net, gen.BaseTime.AddDate(0, 1, 0))
		rff.Close()
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d records)\n", rpath, n)
	}
}

// runSample reads a serial-1 relationship file, downsamples it with the
// degree-preserving sampler, and writes the sampled as-rel.txt.
func runSample(relPath string, size int, seed int64, out string) error {
	f, err := os.Open(relPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := topo.ReadCAIDA(f)
	if err != nil {
		return err
	}
	s := topo.Sample(g, size, seed)
	fmt.Printf("sampled %d ASes / %d links down to %d ASes / %d links\n",
		g.NumASes(), g.NumLinks(), s.NumASes(), s.NumLinks())
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	outPath := filepath.Join(out, "as-rel.txt")
	of, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer of.Close()
	if err := topo.WriteCAIDA(of, s); err != nil {
		return err
	}
	fmt.Println("wrote", outPath)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "genesis:", err)
	os.Exit(1)
}
