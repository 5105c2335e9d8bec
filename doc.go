// Package absmac is a from-scratch Go reproduction of "Consensus with an
// Abstract MAC Layer" (Calvin Newport, PODC 2014, arXiv:1405.1382).
//
// The repository implements the paper's model (acknowledged local
// broadcast under an adversarial scheduler with unknown delivery bound
// Fack), both of its algorithms (two-phase consensus for single-hop
// networks, wPAXOS for multihop networks), the baselines its analysis
// argues against, and executable versions of all four lower-bound
// constructions. Each of the paper's results is checked by the tests of
// the package that implements it: the lower bounds in internal/lowerbound,
// two-phase in internal/core/twophase, wPAXOS in internal/core/wpaxos, the
// flooding baselines in internal/baseline, the randomized extension in
// internal/ext/benor.
//
// The root package carries no code — the library lives under internal/
// (this is a research artifact: the stable entry points are the example
// programs, the cmd/ tools, and the perfbench benchmark).
//
// internal/harness is the scenario entry point: it names algorithms,
// topologies, input patterns, schedulers, crash patterns and unreliable
// overlays in registries, assembles them into runnable Scenario values,
// and sweeps scenario grids in parallel with per-cell latency, fault and
// message statistics. Sweeps are cell-grouped: a grid expands into cell
// work-units (all seeds of one axis combination), each cell runs its
// seeds back to back on a reusable simulator engine, and workers share
// per-sweep caches of built topologies, their diameters and overlay dual
// graphs keyed by (topo, seed) — so everything that depends only on the
// topology and seed is computed once per sweep, not once per scenario. The two adversity registries put the paper's fault
// models on sweep axes: crash patterns (none, one@T, maxid@T,
// coordinator, midbroadcast, minorityrand) schedule the crash failures
// of Theorem 3.2
// — including the mid-broadcast crash that loses part of a delivery plan
// and the ack — and overlay families (none, randomextra:P, extra:K,
// chords, each with an optional @Q delivery probability) build the
// unreliable dual graph of the Kuhn–Lynch–Newport model variant, with
// consensus properties judged over the surviving nodes. cmd/amacsim
// (single cell and -sweep), cmd/benchsuite's canonical grid and the
// examples are all built on it; see cmd/amacsim's package comment for the
// sweep grammar — e.g.
//
//	amacsim -sweep -algos floodpaxos -topos ring:9 -scheds random \
//	        -facks 4 -crashes one@0,midbroadcast \
//	        -overlays randomextra:0.25,chords -seeds 8
//
// — and the JSON cell schema.
//
// On top of seeded sweeps sits the schedule-space explorer: internal/sim
// records every nondeterministic decision of a run (each broadcast's
// delivery plan, every unreliable-edge coin, every crash time) into a
// JSON-serializable Schedule that replays byte-identically, and
// internal/explore searches perturbations of recorded schedules — swapped
// delivery orders, re-jittered delays within Fack, flipped overlay coins,
// shifted crashes — for property violations, then delta-debugs what it
// finds into minimal replayable counterexample artifacts. cmd/amacexplore
// is the CLI (-budget, -minimize, -replay); `amacsim -record` captures
// any single run as an artifact and `amacsim -trace` dumps machine-
// readable JSONL event traces.
//
// The campaign layer composes the two pipelines: sweeps stream every
// violating (scenario, seed) to a consumer as cell workers classify it
// (harness.SweepOptions/FlaggedRun, with the violation verdict hoisted
// into internal/consensus so both sides share it), and
// internal/explore.Campaign drives a whole grid — sweep with
// schedule-coverage fingerprints (sim.Fingerprinter, reporting how many
// distinct delivery orderings each cell exercised and stopping saturated
// cells early), then record, perturb and parallel-shrink every flagged
// cell on one shared worker pool into minimized artifacts, all
// byte-reproducible at any worker count. `amacexplore -grid` runs
// campaigns from the same sweep-axis grammar as `amacsim -sweep` (the
// shared harness.AxisFlags helper) and emits a JSON campaign report. The
// first artifacts found this way were two multihop liveness stalls (a
// wPAXOS response lost forever on a lossy chord, a floodpaxos leader
// dying after election); both are fixed (see the next section) and their
// recordings under internal/harness/testdata/ now serve as divergence
// regressions, with the minimized two-phase coordinator-crash stall —
// the paper's Theorem 3.2 counterexample, which is supposed to stall —
// as the canonical violating artifact.
//
// # Liveness under leader death
//
// Both multihop algorithms (internal/core/wpaxos and its flooding
// baseline internal/baseline/floodpaxos) survive the death of their
// elected proposer. They run one PAXOS core, the exported types of
// internal/core/wpaxos: Acceptor, Proposer (numbering, the two-numbers
// budget and its Ω gate on retry), ChangeService, PropQueue, ChosenWatch
// and Detector. Only the response path is per variant. Two mechanisms
// carry liveness:
//
//   - Retransmit until superseded. Every queue a node pumps — leader
//     announcements, change notices (ChangeService), the
//     highest-numbered proposition (PropQueue), acceptor responses,
//     gossiped acceptor state — stays sticky: it is re-broadcast on every
//     pump until a strictly newer item supersedes it, rather than sent
//     once and forgotten. Receivers deduplicate, so retransmission is
//     idempotent; a message lost to a crash or an unreliable overlay edge
//     is simply sent again. wPAXOS's aggregated fast-path response counts
//     remain send-once (re-aggregating would double-count); robustness
//     there comes from per-origin monotone acceptor-state gossip, merged
//     idempotently. In both variants the chosen-value watch
//     (ChosenWatch) lets any node observe a majority and decide even if
//     the proposer who assembled it is dead.
//   - Suspicion-based Ω with deterministic rotation (Detector). Each
//     node estimates Fack from observed broadcast-to-ack delays (fhat)
//     and suspects the current omega after fhat·(4n+8)·mult ticks of
//     silence, doubling mult on each firing so false suspicions under
//     slow schedules die out. Membership is learned from gossip and kept
//     sorted; on suspicion the detector demotes omega to the
//     next-highest unsuspected id, and when every member is suspected it
//     clears all suspicions and re-promotes the maximum — so a false
//     cascade self-heals. Detector.Gossip alternates between flooding the
//     current omega (the paper's O(D·Fack) leader-election flood) and
//     round-robin membership dissemination, keeping election fast while
//     every node converges on the same sorted member list, which makes
//     rotation deterministic across nodes and seeds.
//
// The formerly pinned stalls now terminate
// (internal/harness/known_issue_test.go asserts termination, CI scans
// the whole crash×overlay leader-death grid clean), including the
// maxid@T crash pattern — killing the stable max-id leader after
// election has settled, the exact axis that used to stall both variants.
//
// # Determinism contract
//
// Everything above leans on one invariant: a (scenario, seed) pair fully
// determines an execution — byte-identical schedule replay, golden cell
// JSON, campaign reports identical at any worker count. The contract is
// enforced statically by cmd/detlint (a standard-library multichecker
// over the internal/lint analyzer suite; `go run ./cmd/detlint ./...`
// must exit 0 and CI runs it on every push), so a violation is rejected
// at review time instead of surfacing as a flaky golden test later. The
// rules:
//
//   - norawrand: in the deterministic core (internal/sim, graph, harness,
//     explore, baseline, ext) randomness must flow through a *rand.Rand
//     constructed as rand.New(rand.NewSource(seed)) from a scenario- or
//     search-seed derivation. Global math/rand functions, opaque sources
//     and wall-clock seeds are rejected.
//   - nowallclock: no time.Now/Since/Until anywhere under internal/
//     except the wall-clock substrates internal/live and internal/netmac;
//     simulated time is the event queue's logical clock.
//   - maporder: a `range` over a map must not feed an order-sensitive
//     sink (encoding/json, fmt output, hash writes, or an append whose
//     slice the function returns). Collect the keys, sort them, iterate
//     the slice — or annotate (below).
//   - goroutineorder: worker goroutines (a `go` literal, or a literal
//     handed to a pool submit method) publish results only into
//     pre-addressed slots (results[i] = ...) or channels whose consumer
//     reduces in candidate order — never by appending to, or mutating,
//     captured state, mutex or not (mutexes serialize, they don't order).
//
// Justified exceptions to the two order rules carry an audited
// annotation on (or directly above) the flagged line:
//
//	//lint:deterministic <why iteration/publication order cannot be observed>
//
// The reason is part of the contract — reviewers grep for the tag.
// norawrand and nowallclock have no annotation escape on purpose: their
// exceptions are whole packages (the scope lists above), not lines.
// Seed-derivation hygiene, audited with the suite's introduction: the
// scheduler consumes the scenario seed directly, overlay construction
// uses seed*1000003+17, per-delivery loss coins seed*6700417+257,
// minorityrand crashes seed*2654435761+97, the seeded topology builders
// use seed*9176741+389 (expander) and seed*15485863+577 (pods), and
// ben-or decorrelates per node — distinct affine maps, so no two
// consumers ever walk the same stream. Each analyzer's package doc
// states its precise rule; fixtures under internal/lint/*/testdata pin
// both the findings and the escape hatches, and `detlint -fix` inserts
// annotation skeletons for human audit.
//
// # Scale
//
// The simulator is sized for n in the 10^3..10^4 range, not just the
// paper's small worked examples. Three layers carry the load:
//
//   - internal/graph stores adjacency in flat CSR arrays (one offsets
//     slice, one packed neighbor slice) rebuilt lazily from an
//     insertion-ordered edge log, with an O(1) edge-set behind AddEdge
//     and HasEdge during construction and binary search on sorted rows
//     after. Row order is part of the determinism contract — the random
//     scheduler draws per-neighbor delivery times by row index — so the
//     CSR reproduces exact insertion order, families built by
//     graph.FromEdges are sorted by construction, and Diameter switches
//     from the exact all-pairs BFS to a bounded-effort double-sweep +
//     iFUB lower-bound certificate past 512 nodes.
//   - internal/sim keeps node runtime state structure-of-arrays: flat
//     slices per field, decisions living directly in the reusable
//     Result, and per-node amac.API values pre-boxed at Reset so a run
//     performs no per-node interface allocation. Steady-state allocs/op
//     on a reused engine are independent of n (BenchmarkBroadcastPlanLarge
//     pins this at n=1024 and n=4096; BENCH_engine.json records the
//     before/after).
//   - Two degree-bounded sparse families put large n on sweep axes:
//     expander:N:D (seeded random D-regular via stub pairing with
//     conflict repair) and pods:P:K:C (an Octopus-style mesh of P
//     k-node ring pods joined by C cross links per pod). Degree stays
//     fixed as n grows, which is the regime where the abstract MAC
//     layer's per-broadcast costs stay flat.
//
// # Event queue and the Fack horizon
//
// The engine's pending-event queue exploits the model's own contract.
// validatePlan admits only plans whose deliveries and ack land in
// (Now, Now+Fack], so at any instant every queued event lives within one
// Fack window of the clock — bounded-horizon scheduling, the regime where
// a calendar (timing-wheel) structure beats a heap. internal/sim/queue.go
// keeps a power-of-two ring of per-time buckets spanning the horizon:
// push appends to a bucket FIFO, pop advances the clock cursor to the
// next nonempty bucket (one bitmap word scan per 64 buckets) and takes
// its head. Both are O(1); a 36k-event backlog on expander:4096:8 costs
// the same per operation as an empty queue.
//
// The ring is the whole queue. It spans the smallest power of two above
// the scheduler's declared Fack, so every admissible event has a bucket
// and nothing ever overflows; wrapping schedulers (Gate, SlowSubset)
// simply declare a wider Fack and get a wider ring. sim.MaxFack = 2^20
// bounds the declared Fack — Config.Validate, Schedule.Validate and
// harness.NewScheduler reject anything larger — which caps the ring at
// 2^21 buckets, 32 MiB of bucket headers plus a 256 KiB bitmap; the
// canonical grids run at Fack <= 8, a ring of 16 buckets. Events live in
// a dense value slab indexed by int32 with an intrusive free chain, so
// the GC never scans the queue and slab growth amortizes to one
// allocation per doubling.
//
// The pop order is the model's total order — time, deliveries before
// acks, insertion order — and is byte-identical to the quaternary heap
// the ring replaced. One FIFO chain per (bucket, kind) reproduces it
// exactly: the cursor visits times in order, and within a time the
// deliver chain drains before the ack chain, each in insertion order.
// That heap survives only in internal/sim/queue_test.go, as the oracle a
// randomized test drives side by side with the ring (Facks from 1 to
// 10^5, many co-timed deliveries and acks); and execution digests it
// recorded — every registered scheduler × crash pattern × overlay
// family, a seeded fuzz loop, and runs at Fack 5000 and 100000 — pin
// the engine's event sequences, results and fingerprints end to end.
//
// # Observability
//
// internal/metrics is a flight-recorder registry built for the engine's
// hot path: fixed slots allocated at registration (counters, gauges with
// high-water marks, power-of-two-bucket histograms), handles that are
// plain value structs, and every mutation a branch plus an array write —
// no locks, no interfaces, no allocation. A nil registry hands out
// disabled handles whose mutators are one predictable branch, so
// instrumented code never guards call sites and the metrics-off
// configuration is the one the allocation pins in BENCH_engine.json
// measure. Export (WriteText, Snapshot) walks slots sorted by name —
// never a map — so output is deterministic and sweep cell JSON stays
// byte-identical at any worker width; the golden grid JSON does not
// change at all unless SweepOptions.Metrics is set. Wall-clock
// timestamps appear in exactly one place: the periodic text exposition
// of the live/netmac substrates (live.ExposeMetrics), which the
// nowallclock scope already exempts.
//
// internal/critpath answers "where did the decide latency go": it
// observes a run through sim.Config.Observer, then walks the causal
// delivery chain backward from the first decide to the first broadcast,
// attributing each hop to an algorithm phase (election, proposal,
// aggregation, decide) and each queueing delay to a stall span. The
// spans partition (0, decide-time] exactly — they sum to the decide
// time by construction, and a golden test pins both committed replay
// artifacts' breakdowns. `amacsim -metrics` prints the registry and the
// critical path after a single run (and adds aggregated per-cell metric
// rows to sweep JSON); `amacexplore -replay -critpath` recovers the
// same breakdown from a recorded artifact, because a replayed schedule
// produces the identical execution.
package absmac
