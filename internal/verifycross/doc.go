// Package verifycross cross-checks the static linearity analyzer against
// recorded execution DAGs.
//
// For every algorithm in internal/paralg and internal/costalg the test in
// this package computes two verdicts:
//
//   - static: run the flow-sensitive flowlinear analyzer over the package
//     and ask whether any finding lands inside a function reachable from
//     the algorithm's entry point (call graph + fork bodies);
//   - dynamic: record the algorithm's DAG on the cost engine, check it
//     with trace.Verify, and take trace.Linearity over the touch events.
//
// The contract is one-directional: flowlinear is a may-analysis, so it is
// allowed to flag a computation whose recorded run happens to be linear,
// but a static "linear" verdict (no reachable finding) must never coexist
// with a recorded DAG that touches some cell twice. A disagreement in
// that direction means the analyzer is unsound and the test fails.
//
// internal/paralg runs on the work-stealing scheduler, whose cells record
// no DAG; its dynamic witness is the recorded DAG of the costalg twin of
// the same paper algorithm.
package verifycross
