package analysis_test

import (
	"testing"

	"pipefut/internal/analysis"
	"pipefut/internal/analysis/analysistest"
	"pipefut/internal/analysis/flow"
)

func TestDoubleWrite(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.DoubleWrite, "doublewrite")
}

func TestNeverWritten(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), flow.MustWrite, "neverwritten")
}

func TestLeakedFork(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), analysis.LeakedFork, "leakedfork")
}

func TestNonLinear(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), flow.FlowLinear, "nonlinear")
}
