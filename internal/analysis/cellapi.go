package analysis

// The future-cell API classification the analyzers are built on lives in
// internal/cellapi, shared with the SSA-lite IR (internal/ssa) and the
// flow-sensitive analyzers (internal/analysis/flow). The local names
// below keep the syntactic passes readable.

import "pipefut/internal/cellapi"

var (
	writeTargets   = cellapi.WriteTargets
	prewrittenCell = cellapi.PrewrittenCell
	identObj       = cellapi.IdentObj
	identNode      = cellapi.IdentNode
	within         = cellapi.Within
	forkCall       = cellapi.ForkCall
)

// forkInfo describes a recognized future call; see cellapi.ForkInfo.
type forkInfo = cellapi.ForkInfo
