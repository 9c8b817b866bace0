package pipefut

import (
	"os/exec"
	"strings"
	"testing"
)

// TestImportBoundary keeps the public package and the serving binary
// free of the static-analysis stack, and the serving binary free of the
// cost-model machinery too. The server needs one bit of the analyzer's
// output, the seqsafe entry set, and paralg keeps that as a table (held
// equal to the manifest by internal/verdict's TestSeqSafeTable), so
// nothing on the request path has a reason to link the prover.
func TestImportBoundary(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH")
	}
	analyzer := []string{"pipefut/internal/analysis", "pipefut/internal/ssa",
		"pipefut/internal/verdict", "pipefut/internal/cellapi", "go/types"}
	costModel := []string{"pipefut/internal/core", "pipefut/internal/trace",
		"pipefut/internal/costalg", "pipefut/internal/ml",
		"pipefut/internal/machine", "pipefut/internal/clomachine"}
	for _, c := range []struct {
		pkg    string
		banned [][]string
	}{
		{".", [][]string{analyzer}},
		{"./cmd/pipeserve", [][]string{analyzer, costModel}},
	} {
		out, err := exec.Command(goBin, "list", "-deps", c.pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps %s: %v\n%s", c.pkg, err, out)
		}
		for _, dep := range strings.Fields(string(out)) {
			for _, set := range c.banned {
				for _, b := range set {
					if dep == b || strings.HasPrefix(dep, b+"/") {
						t.Errorf("%s links %s", c.pkg, dep)
					}
				}
			}
		}
	}
}
