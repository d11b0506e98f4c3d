// Command walreshard changes a wormwatchd fleet's shape offline: it
// scatters N per-shard durability directories (WAL segments plus
// checkpoints) into M new directories by re-evaluating prefix-range
// ownership per record, preserving global sequence numbers. The
// resharded fleet serves a merged /alerts surface byte-identical to
// the old one — no feed replay required.
//
// Usage:
//
//	walreshard -from wal-a,wal-b -to wal-0,wal-1,wal-2
//
// Stop every source shard first (a graceful shutdown writes the final
// checkpoint each source needs); boot the new fleet with
// -shards M -shard-index k pointing at the matching destination.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bgpworms/internal/durable"
	"bgpworms/internal/serve"
)

func main() {
	var (
		from         = flag.String("from", "", "comma-separated source shard directories, in old shard-index order")
		to           = flag.String("to", "", "comma-separated destination shard directories, in new shard-index order")
		segmentBytes = flag.Int64("segment-bytes", 0, "destination WAL segment rotation threshold (0 = default)")
		quiet        = flag.Bool("q", false, "suppress the per-destination report")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "walreshard: unexpected argument %q: every input is a flag, and flags after it were not read (see -h)\n", flag.Arg(0))
		os.Exit(2)
	}
	srcs := splitDirs(*from)
	dsts := splitDirs(*to)
	if len(srcs) == 0 || len(dsts) == 0 {
		fmt.Fprintln(os.Stderr, "walreshard: both -from and -to need at least one directory")
		flag.Usage()
		os.Exit(2)
	}
	if err := durable.ValidateDirs(srcs); err != nil {
		fmt.Fprintf(os.Stderr, "walreshard: %v\n", err)
		os.Exit(1)
	}
	// The new fleet's ownership function: the same RangeMap every shard
	// daemon and the frontend compute from the destination shard count.
	rm := serve.NewRangeMap(len(dsts))
	rep, err := durable.Reshard(durable.ReshardOptions{
		SrcDirs:      srcs,
		DstDirs:      dsts,
		Owner:        rm.Owner,
		SegmentBytes: *segmentBytes,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "walreshard: %v\n", err)
		os.Exit(1)
	}
	if *quiet {
		return
	}
	fmt.Printf("resharded %d -> %d shards: %d records (%d checkpoint-covered dropped)\n",
		len(srcs), len(dsts), rep.Records, rep.Covered)
	if rep.CheckpointSeq > 0 {
		fmt.Printf("destination checkpoints cover seq %d\n", rep.CheckpointSeq)
	} else {
		fmt.Println("no source checkpoints; destinations recover by full WAL replay")
	}
	for i, n := range rep.PerDst {
		fmt.Printf("  shard %d  %-24s %d records\n", i, dsts[i], n)
	}
}

// splitDirs parses a comma-separated directory list, dropping empty
// elements so a trailing comma is harmless.
func splitDirs(s string) []string {
	var out []string
	for _, d := range strings.Split(s, ",") {
		if d = strings.TrimSpace(d); d != "" {
			out = append(out, d)
		}
	}
	return out
}
