package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestWireGoroutineSites guards the package's concurrency model and its
// one write path: a datagram is handled on the goroutine that read it, so
// the only goroutines wire starts are the UDP socket's reader
// (packetconn.go) and the hashing demux's per-shard drain (demux.go); and a
// conn writes one frame per WriteToUDP. Every other go statement, any
// method asking a transport whether it delivers inline (the fork this model
// replaced), and any WriteBatch method or BatchWriter type (the send-batching
// path no caller turned on) fails. A second write path comes back only with
// a workload that turns it on. Timers are budgeted per file the same way: a
// conn runs one alarm (conn.go's one AfterFunc), so a new conn timer — a
// path's probe, an FEC group's flush — is a deadline field behind it. The
// multipath shim below the conn, which kept its own timers and in-flight
// map, may not come back under its names either. All platform variants are
// parsed, whatever the build tags, and a budget or allowance for a file
// that is gone fails.
func TestWireGoroutineSites(t *testing.T) {
	allowed := map[string]int{"packetconn.go": 1, "demux.go": 1}
	timers := map[string]int{"conn.go": 1}
	// The names of the paths this model replaced, split so a grep for them
	// finds live code only.
	banned := map[string]string{
		"Synchro" + "nous":   "every transport delivers inline",
		"Write" + "Batch":    "a conn writes one frame per WriteToUDP",
		"Batch" + "Writer":   "a conn writes one frame per WriteToUDP",
		"Path" + "Set":       "a conn's paths are its core's (pathTable), not a transport below it",
		"Path" + "Router":    "a server conn learns its client's paths itself, on its one socket",
		"canonical" + "Addr": "a Mux keys a multipath conn by its session, not by a made-up address",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found, armed := map[string]int{}, map[string]int{}
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
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "AfterFunc" {
					armed[name]++
				}
			case *ast.FuncDecl:
				if why, ok := banned[n.Name.Name]; ok {
					t.Errorf("%s: func %s: %s", fset.Position(n.Pos()), n.Name.Name, why)
				}
			case *ast.TypeSpec:
				if why, ok := banned[n.Name.Name]; ok {
					t.Errorf("%s: type %s: %s", fset.Position(n.Pos()), n.Name.Name, why)
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						if why, ok := banned[id.Name]; ok {
							t.Errorf("%s: interface method %s: %s", fset.Position(id.Pos()), id.Name, why)
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
	for _, budget := range []map[string]int{allowed, timers} {
		for name := range budget {
			if !slices.Contains(files, name) {
				t.Errorf("%s: budgeted, but there is no such file (drop the entry with the file)", name)
			}
		}
	}
	for _, name := range files {
		if armed[name] != timers[name] {
			t.Errorf("%s: %d AfterFunc calls, want %d (a new timer in a conn becomes a deadline field behind its one alarm, not a second timer)", name, armed[name], timers[name])
		}
	}
}
