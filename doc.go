// Package bgpworms reproduces "BGP Communities: Even more Worms in the
// Routing Can" (Streibelt et al., ACM IMC 2018) as a self-contained Go
// system: a BGP/MRT codec, an AS-level routing simulator with per-AS
// community policy, route-collector platforms, the paper's measurement
// pipeline (internal/core), and the attack-scenario engine — lab and
// attack implementations in internal/attack, registered as named,
// self-describing scenarios in the internal/scenario registry with a
// parallel sweep harness on top.
//
// # Module layout
//
// The module (bgpworms, Go 1.24) is organised bottom-up: internal/bgp
// and internal/mrt implement the wire formats; internal/topo,
// internal/policy and internal/router implement AS-level routing;
// internal/simnet runs networks of routers to convergence;
// internal/collector and internal/gen produce the measurement vantage
// (synthetic Internets recorded into MRT archives); internal/feed holds
// the one routing observation record (feed.Event) with its one MRT
// decoder and one simnet tap, below every consumer; internal/core
// consumes those records and computes every table and figure of §4.
// Above the simulator, internal/attack builds injection-platform labs
// and internal/scenario catalogs every attack for enumeration,
// parameterized runs, and grid sweeps; internal/watch ingests live
// update feeds (simnet taps, MRT streams) into a sharded sliding-window
// detection engine; internal/semantics infers per-AS community
// dictionaries from the same feeds and classifies
// every value's usage (informational, action-blackhole,
// action-steering, action-prepend, well-known, unknown), scoreable
// against the generator's ground truth (gen.Internet.TruthDict)
// and feeding the dictionary-aware watch detectors. The cmd/ tree
// exposes the halves as binaries: genesis writes archives, worms
// analyses them, attacklab lists/runs/sweeps the §5–§7 scenarios,
// bgpcat pretty-prints MRT (with -follow tailing growing archives and
// -community filtering), commdict prints inferred dictionaries, and
// wormwatchd serves the detection engine's alerts and the live
// dictionary (/dict endpoints) over HTTP while ingesting. The five
// that build or replay a world name it the same way: gen.NewFlags
// registers -scale and -seed, and each binary passes only its default
// scale. A worker count means one thing everywhere: 0 or negative is
// one worker per CPU.
// ARCHITECTURE.md maps every paper section to its package.
//
// # Concurrency
//
// The measurement pipeline (core.Pipeline) fans out over a worker pool:
// one fold (core.Accumulator) builds every per-update aggregate (the
// §4 share and the Figure 3 point are read off them), driven
// by Analyze over each collector's run of an in-memory update slice or by
// StreamMRTDir over MRT archives on disk, never materializing the
// update slice; partial accumulators merge deterministically in order,
// and the Figure 6 inference shards the concurrent route view by
// prefix. Results are bit-identical for every worker count. The simulator converges every
// world with one engine (simnet.Network.Apply): the delta-driven event
// engine that scales to the large/internet presets (per-router dirty
// sets, class-shared export slabs, copy-on-write receives), converging
// ops on distinct prefixes together while replaying taps in op order. Its
// convergence counts, tap ordering, archives, and final RIBs are
// invariant across worker counts under a fixed seed, and equal to a
// test-only spec oracle written from RFC 4271 and the policy rules, which
// shares no code with the engine — a property the randomized
// differential suite (internal/simnet/differential_test.go) enforces
// with shrinking.
// The watch and semantics engines extend the same discipline to the
// online side: prefix-sharded windows make alert sets shard-count
// invariant, ingest has one lossless path (a feed that outruns the
// shard workers waits; nothing is shed), and the dictionary engine's
// commutative evidence folds make inferred dictionaries invariant to
// how the stream was split over the partial dictionaries the watch
// shards fold into.
// Converged worlds can be frozen into immutable snapshots
// (simnet.Network.Freeze, gen.BuildSnapshot) and forked copy-on-write,
// so a sweep or release suite builds each (scale, seed) world
// once and every cell perturbs a cheap fork (a suite's dictionary arm
// trains on a fork of the same world). Only a suite, whose cells
// tap their forks, records the construction stream for them to replay
// (gen.BuildSnapshotForReplay); a sweep's snapshots record nothing. A
// snapshot converges on every CPU and each fork runs at its cell's
// engine pool, which no result depends on. Warm runs are held
// bit-identical to scratch builds by a differential equivalence suite
// (internal/simnet and internal/attack warm tests).
//
// # Verification
//
// Performance is measured by one benchmark system, bench/: four
// end-to-end workloads over the shipped binaries plus a traced run that
// attributes the time to layers (bash bench/run.sh, go run ./bench
// -compare). bench_test.go keeps only the scale probe, which converges
// the paper-scale presets (BenchmarkLargeWorldBuild). CI runs the
// Makefile targets (build, lint with the layering gate, deadcode — no
// function under internal/ that no binary links — race, coverage ratchet,
// fuzz smoke, watch smoke, byte pins, scale probe, yardstick smoke) on every push; BENCHMARKS.md
// keeps each PR's measurements as history, golden files (internal/core/testdata/golden) pin the
// paper-facing numbers, native fuzzers with checked-in corpora
// (FuzzCommunityText, FuzzMRTRecord) harden the codecs, and runnable
// Example tests pin the documented entry points (core.Pipeline.Analyze,
// scenario.Run, scenario.SweepOpts over the one grid runner
// scenario.RunCells, and simnet's five-AS walk through looking glasses
// and the data plane).
package bgpworms
