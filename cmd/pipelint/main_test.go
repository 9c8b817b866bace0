package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetToolRunsFlowAnalyzers builds pipelint and runs it as a go vet
// tool over a package that touches one cell twice in straight-line code.
// Only the flow-sensitive linearity check sees that touch, so the test
// fails unless the vet protocol path runs the same suite as standalone
// mode.
func TestVetToolRunsFlowAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pipelint and runs go vet; skipped under -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "pipelint")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(goBin, "vet", "-vettool="+bin, "./testdata/doubletouch").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("go vet -vettool exited 0 (or failed to start: %v) on a double touch\n%s", err, out)
	}
	if !strings.Contains(string(out), "(flowlinear)") {
		t.Errorf("go vet -vettool output carries no flowlinear diagnostic:\n%s", out)
	}
}
