package main_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllow names the functions no non-test code calls that stay anyway,
// each with the reason. Keys are pkg.Name or pkg.Recv.Name.
var reachAllow = map[string]string{
	// The simulated scenarios tier-1 runs.
	"marsim.RunHandover":        "TestHandoverScenario, the determinism matrix and the trace digests run it",
	"marsim.RunCongestion":      "TestCongestionScenario, the determinism matrix and the trace digests run it",
	"marsim.RunPartitionResume": "TestPartitionResume, the determinism matrix and the trace digests run it",
	"marsim.RunOverloadStorm":   "the determinism matrix and the trace digests run it",
	"marsim.RunSoak":            "TestSoakTimeCompression and the trace digests run it",

	// Read by another package's tests, with no live API that reads the same.
	"core.Controller.PeerRate": "wire's TestArrivalRateFeedsController and TestPerPacketBookkeepingZeroAlloc read the rate a conn hands its controller",
	"marsim.Trace.Events":      "rpc's TestCallIsTwoDatagrams counts the datagrams in the trace log",
	"obs.Tracer.Take":          "rpc's TestTracedCallBudget and TestUntracedInterop read the finished spans",
	"rpc.Server.Shards":        "marsim's TestShardedSimCollapse reads the shard count a simulated transport collapses to",
	"simnet.Link.Loss":         "phy's TestTrackD2DLinkRecoversLoss reads the loss the tracker sets on a link",
	"simnet.Link.Queue":        "marsim's TestLinkDropsRecycle bounds an endpoint link's queue",
	"simnet.NewCollector":      "tcp's and phy's tests end their simulated paths in a Collector",
	"trace.DurStats.Count":     "offload's tests count the frames a Runner completed",
}

// TestExportedAPIIsReached fails on a function or method of the program
// (every package of this module and of benchmark/) that no non-test code
// calls: a test that is the only caller keeps an API alive that nothing
// runs. A method its type needs to satisfy an interface is exempt.
func TestExportedAPIIsReached(t *testing.T) {
	found, err := unreached(programSource(t), reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s:%d %s: no non-test code calls it; delete it, or move it to export_test.go", f.pos.Filename, f.pos.Line, f.name)
	}
}

// TestReachGuardFindsFixture runs the guard's checker on testdata/reach,
// which holds one function of each kind the guard must tell apart.
func TestReachGuardFindsFixture(t *testing.T) {
	found, err := unreached(fixtureSource(t), map[string]string{"lib.Kept": "the fixture's allowlisted function"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.name)
	}
	want := []string{"lib.Dead", "lib.OnlyTested", "lib.T.Gone"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reported %v, want %v", got, want)
	}
}

// source is the non-test Go source of one module, parsed: every package
// directory under its root (a nested module whose path extends the root's,
// such as benchmark/, included), with the files go/build would compile
// for this platform.
type source struct {
	fset *token.FileSet
	pkgs []*sourcePkg // in directory order

	checkOnce sync.Once // typeCheck's result, computed once per source
	checked   []*types.Package
	infos     []*types.Info
	checkErr  error
}

type sourcePkg struct {
	path  string // import path
	files []*ast.File
}

var (
	programOnce, fixtureOnce sync.Once
	program, fixture         *source
	programErr, fixtureErr   error
)

// programSource is this repository's source, parsed once for every test
// that reads it.
func programSource(t *testing.T) *source {
	programOnce.Do(func() { program, programErr = loadSource(".") })
	if programErr != nil {
		t.Fatal(programErr)
	}
	return program
}

// fixtureSource is testdata/reach, the module that holds one case of each
// kind every program-wide guard must tell apart, parsed once.
func fixtureSource(t *testing.T) *source {
	fixtureOnce.Do(func() { fixture, fixtureErr = loadSource(filepath.Join("testdata", "reach")) })
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

// loadSource parses the module rooted at root.
func loadSource(root string) (*source, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	s := &source{fset: token.NewFileSet()}
	ctx := build.Default
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &sourcePkg{path: module}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			ok, err := ctx.MatchFile(dir, name)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			s.pkgs = append(s.pkgs, p)
		}
		return nil
	})
	return s, err
}

// reachFinding is one function no non-test code calls.
type reachFinding struct {
	pos  token.Position
	name string // pkg.Name or pkg.Recv.Name
}

// unreached type-checks src and returns, sorted by name, every function
// and method that no Uses entry of its non-test code resolves to, apart
// from main, init, the allowlist, and a method whose receiver type (or its
// pointer) implements an interface that has the method and is declared
// or used in the checked packages or the packages they import. An
// allowlist entry that names no such function is an error, so the list
// cannot outlive its reasons.
func unreached(src *source, allow map[string]string) ([]reachFinding, error) {
	checked, infos, err := typeCheck(src)
	if err != nil {
		return nil, err
	}

	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	addIface := func(typ types.Type) {
		if i, ok := typ.Underlying().(*types.Interface); ok && i.NumMethods() > 0 && i.IsMethodSet() {
			ifaces = append(ifaces, i)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, info := range infos {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok && !within(id, fn) {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams() == nil {
					addIface(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range checked {
		visit(p)
	}

	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, i := range ifaces {
			for m := 0; m < i.NumMethods(); m++ {
				if i.Method(m).Name() == fn.Name() && (types.Implements(recv, i) || types.Implements(types.NewPointer(recv), i)) {
					return true
				}
			}
		}
		return false
	}

	var found []reachFinding
	listed := map[string]bool{}
	for i, p := range src.pkgs {
		info := infos[i]
		for _, f := range p.files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := info.Defs[decl.Name].(*types.Func)
				name := fn.Name()
				if name == "init" || name == "_" || (name == "main" && decl.Recv == nil && fn.Pkg().Name() == "main") || used[fn] {
					continue
				}
				key := fn.Pkg().Name() + "." + name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if satisfies(fn) {
						continue
					}
					key = fn.Pkg().Name() + "." + receiverName(recv.Type()) + "." + name
				}
				if _, ok := allow[key]; ok {
					listed[key] = true
					continue
				}
				found = append(found, reachFinding{src.fset.Position(decl.Pos()), key})
			}
		}
	}
	for key := range allow {
		if !listed[key] {
			return nil, fmt.Errorf("allowlist entry %s names no function that non-test code leaves uncalled", key)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found, nil
}

// within reports whether id sits inside fn's own declaration: a function
// that only calls itself is not reached.
func within(id *ast.Ident, fn *types.Func) bool {
	return fn.Scope() != nil && fn.Scope().Contains(id.Pos())
}

func receiverName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// typeCheck checks every package of src, importing the module's own
// packages from src and everything else from the compiler's export data,
// which one `go list -export` locates. It returns the packages and their
// Info in src.pkgs order, and checks a source once however many guards
// ask.
func typeCheck(src *source) ([]*types.Package, []*types.Info, error) {
	src.checkOnce.Do(func() { src.checked, src.infos, src.checkErr = checkSource(src) })
	return src.checked, src.infos, src.checkErr
}

func checkSource(src *source) ([]*types.Package, []*types.Info, error) {
	byPath := map[string]int{}
	external := map[string]bool{}
	for i, p := range src.pkgs {
		byPath[p.path] = i
	}
	for _, p := range src.pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if _, ok := byPath[path]; !ok {
					external[path] = true
				}
			}
		}
	}
	exports, err := exportData(external)
	if err != nil {
		return nil, nil, err
	}
	gc := importer.ForCompiler(src.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})

	pkgs := make([]*types.Package, len(src.pkgs))
	infos := make([]*types.Info, len(src.pkgs))
	var check func(i int) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if i, ok := byPath[path]; ok {
			return check(i)
		}
		return gc.Import(path)
	})
	check = func(i int) (*types.Package, error) {
		if pkgs[i] != nil {
			return pkgs[i], nil
		}
		infos[i] = &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(src.pkgs[i].path, src.fset, src.pkgs[i].files, infos[i])
		pkgs[i] = p
		return p, err
	}
	for i := range src.pkgs {
		if _, err := check(i); err != nil {
			return nil, nil, err
		}
	}
	return pkgs, infos, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportData maps each package in paths, and each package they import, to
// its compiled export data file.
func exportData(paths map[string]bool) (map[string]string, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v: %s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}
