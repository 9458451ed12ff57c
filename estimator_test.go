package main_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == home {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if e, ok := n.(*ast.BinaryExpr); ok && isSRTTUpdate(e) {
					t.Errorf("%s: a hand-written SRTT EWMA; keep a core.RTT and Update it", fset.Position(e.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
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
