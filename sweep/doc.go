// Package sweep is the design-of-experiments (DOE) layer of the
// repository: it owns the canonical Scenario configuration type and turns
// the paper's factorial evaluation — puzzle difficulty k, SYN-cache size
// m, botnet shape, and defense mode swept against each other — into plain
// data that can be expanded, executed, streamed, and cached.
//
// The pieces compose bottom-up:
//
//   - Scenario is the one canonical description of a deployment under
//     attack, shared by the public sim façade, every figure/table driver
//     in internal/experiments, and the benchmarks. Scale rescales a
//     scenario's deployment size without touching its semantics; Exec,
//     passed beside it, says how cells run (workers, sinks, cache) and
//     never what they compute.
//
//   - Grid declares a factorial design as a literal: a base Scenario plus
//     product Axes (Ks, Ms, Defenses, BotCounts, PerBotRates, Seeds, or
//     free-form Variants). Expand produces the deduplicated cell list in a
//     deterministic row-major order.
//
//   - Result is the structured record of one completed cell: the
//     canonical Scenario plus named scalar Metrics and per-bucket Series.
//     It replaces pre-formatted strings as the primary representation;
//     Table remains as a pretty-printed view.
//
//   - Sink is where Results stream as cells complete: NewCSV (long-format
//     rows, one per scalar metric), NewNDJSON (one JSON object per cell,
//     including series), and NewTable (the aligned pretty-printer).
//     Stream re-orders concurrent completions so sink output is always in
//     grid order — byte-identical at every worker count. The CSV and
//     NDJSON records are encoded by the goroutine that emits the cell;
//     under Stream's lock they are only written.
//
//   - Cache is a content-addressed result store keyed by Hash — a stable
//     SHA-256 of the canonical Scenario's one encoding (Canon), which the
//     NDJSON record carries too, plus the experiment name, under the
//     digest of the output ledger this package embeds — so regenerating
//     a figure skips every already-computed cell, and re-blessing the
//     ledger re-keys them all. Hits and Misses counters make the skip
//     observable.
//
// The executor lives one layer up (internal/experiments and sim.RunSweep):
// this package only describes designs and handles their results, so it
// stays free of simulation dependencies.
package sweep
