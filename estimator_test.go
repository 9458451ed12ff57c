package main_test

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneRTTEstimator guards that an RTT sample is smoothed in one place:
// internal/core/rtt.go. A (7*x + y) / 8 expression, SRTT's EWMA written out
// by hand, anywhere else in the program's non-test code is a second
// estimator whose deviation no loss logic can read; its holder keeps a
// core.RTT instead.
func TestOneRTTEstimator(t *testing.T) {
	home := filepath.Join("internal", "core", "rtt.go")
	src := programSource(t)
	for _, p := range src.pkgs {
		for _, f := range p.files {
			path := src.fset.Position(f.Pos()).Filename
			top, _, _ := strings.Cut(filepath.ToSlash(path), "/")
			if path == home || top != "internal" && top != "cmd" && top != "examples" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if e, ok := n.(*ast.BinaryExpr); ok && isSRTTUpdate(e) {
					t.Errorf("%s: a hand-written SRTT EWMA; keep a core.RTT and Update it", src.fset.Position(e.Pos()))
				}
				return true
			})
		}
	}
}

// isSRTTUpdate matches (7*x + y) / 8, either operand of either sum first.
func isSRTTUpdate(e *ast.BinaryExpr) bool {
	if e.Op != token.QUO || !isLit(e.Y, "8") {
		return false
	}
	p, ok := e.X.(*ast.ParenExpr)
	if !ok {
		return false
	}
	sum, ok := p.X.(*ast.BinaryExpr)
	if !ok || sum.Op != token.ADD {
		return false
	}
	for _, term := range []ast.Expr{sum.X, sum.Y} {
		if m, ok := term.(*ast.BinaryExpr); ok && m.Op == token.MUL && (isLit(m.X, "7") || isLit(m.Y, "7")) {
			return true
		}
	}
	return false
}

func isLit(e ast.Expr, v string) bool {
	l, ok := e.(*ast.BasicLit)
	return ok && l.Value == v
}
