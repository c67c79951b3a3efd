// Package experiments reproduces the paper's evaluation (§6) on the
// simulated DETER-like testbed. Each figure, table and ablation is one
// Experiment value in the ordered Experiments table: a sweep.Grid at a
// scale, a per-cell measurement, and a table rendered from the completed
// cells' sweep.Results.
//
// Every experiment runs through the one cache-aware executor, RunPlan,
// which runs the experiments of one invocation as one plan: cells fan out
// across one work-stealing runner pool (sim/runner), flood cells that
// simulate alike share one run across experiments, each completed cell
// streams to any configured sinks in plan order, and the scenario-hash
// result cache lets a regeneration skip already-computed cells. Tables render from the Results alone, so a fully
// cached regeneration performs zero simulation work yet prints the same
// bytes.
//
// See docs/EXPERIMENTS.md for the paper-to-code map.
package experiments
