package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestWireGoroutineSites guards the package's concurrency model: a datagram
// is handled on the goroutine that read it, so the only goroutines wire
// starts are the UDP socket's reader (packetconn.go) and the hashing
// demux's per-shard drain (demux.go). Every other go statement, and any
// method asking a transport whether it delivers inline (the fork this
// model replaced), fails. All platform variants are parsed, whatever the
// build tags.
func TestWireGoroutineSites(t *testing.T) {
	allowed := map[string]int{"packetconn.go": 1, "demux.go": 1}
	fork := "Synchro" + "nous" // split, so a grep for the name finds live code only
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := map[string]int{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				found[name]++
				if found[name] > allowed[name] {
					t.Errorf("%s: go statement outside the socket reader and the demux drain", fset.Position(n.Pos()))
				}
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == fork {
					t.Errorf("%s: method %s: every transport delivers inline", fset.Position(n.Pos()), fork)
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						if id.Name == fork {
							t.Errorf("%s: interface method %s: every transport delivers inline", fset.Position(id.Pos()), fork)
						}
					}
				}
			}
			return true
		})
	}
	for name, want := range allowed {
		if found[name] != want {
			t.Errorf("%s: %d go statements, want %d (update this guard with the concurrency model)", name, found[name], want)
		}
	}
}
