package pipefut

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks the benchmark module (benchmark/,
// its own go.mod) against this tree. It imports dozens of internal
// symbols the root `go test ./...` cannot otherwise see, so a rename
// here that breaks the benchmark's build fails tier-1 instead of the
// next benchmark run.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module; skipped under -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH")
	}
	if out, err := exec.Command(goBin, "vet", "-C", "benchmark", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C benchmark ./...: %v\n%s", err, out)
	}
}
