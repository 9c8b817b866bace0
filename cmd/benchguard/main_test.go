package main

import (
	"strings"
	"testing"
)

// TestRatioVerdict pins the cross-backend check's direction: a falling
// t26/treap ratio is t26 slipping, a rising one is treap slipping (the
// "treap quietly turning batch-synchronous" case), and each is judged on
// the slipping backend's own relative loss — so a +22% rise of t26/treap
// is treap losing 18%, inside a 20% band.
func TestRatioVerdict(t *testing.T) {
	for _, c := range []struct {
		shift, tol float64
		slipped    string // "" = ok
	}{
		{-0.10, 0.20, ""}, {+0.10, 0.20, ""},
		{-0.22, 0.20, "t26"}, {+0.22, 0.20, ""},
		{-0.30, 0.20, "t26"}, {+0.30, 0.20, "treap"},
		{-0.10, 0.25, ""}, {+0.10, 0.25, ""},
		{-0.22, 0.25, ""}, {+0.22, 0.25, ""},
		{-0.30, 0.25, "t26"}, {+0.30, 0.25, ""},
	} {
		status, bad := ratioVerdict("t26", "treap", c.shift, c.tol)
		if bad != (c.slipped != "") {
			t.Errorf("shift %+.0f%% tol %.0f%%: regressed=%v (%s), want %v", 100*c.shift, 100*c.tol, bad, status, !bad)
			continue
		}
		if bad && !strings.HasPrefix(status, "REGRESSED ("+c.slipped+" slipped") {
			t.Errorf("shift %+.0f%% tol %.0f%%: %q names the wrong backend, want %s", 100*c.shift, 100*c.tol, status, c.slipped)
		}
	}
}
