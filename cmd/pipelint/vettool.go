package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
)

// vetConfig mirrors the JSON configuration the go command writes for each
// vet invocation (cmd/go/internal/work's vetConfig; the same contract
// x/tools' unitchecker consumes). Fields pipelint does not need are kept
// for documentation value and future use.
type vetConfig struct {
	ID         string
	Compiler   string
	Dir        string
	ImportPath string
	GoVersion  string
	GoFiles    []string
	NonGoFiles []string

	ImportMap   map[string]string // source import path → canonical path
	PackageFile map[string]string // canonical path → export data file
	Standard    map[string]bool

	PackageVetx map[string]string // dep → vetx facts file (unused: no facts)
	VetxOnly    bool              // only facts wanted; we produce none
	VetxOutput  string            // where to write this package's facts

	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes the single package described by a go vet .cfg file.
// Exit codes follow the vet protocol: 0 clean, 2 diagnostics found,
// 1 operational failure.
func unitcheck(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipelint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "pipelint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The driver schedules a run over every dependency to collect facts
	// (VetxOnly). The pipelint analyzers are factless, so those runs are
	// no-ops; an absent VetxOutput file is permitted by the driver.
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	diags, err := checkPackage(fset, cfg.ImportPath, cfg.Dir, cfg.GoFiles, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "pipelint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Category)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
