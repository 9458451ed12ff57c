package main_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// fieldAllow names the struct fields no non-test code reads that stay
// anyway, each with the reason. Keys are pkg.Type.Field.
var fieldAllow = map[string]string{
	// Read without a selector.
	"wire.addrKey.fam":    "part of the reader's peer-cache map key: every lookup hashes and compares it",
	"wire.addrKey.port":   "part of the reader's peer-cache map key: every lookup hashes and compares it",
	"wire.muxKey.peer":    "part of the Mux's conn map key: every lookup hashes and compares it",
	"wire.muxKey.session": "part of the Mux's conn map key: every lookup hashes and compares it",

	// What a simulated scenario reports; the tier-1 scenario tests, the
	// determinism matrix and the trace digests read it (marsim.Run* are on
	// reachAllow for the same reason).
	"marsim.Result.Trace":                "the determinism matrix compares traces; the digests count and sort their lines",
	"marsim.Result.TraceHash":            "the determinism matrix and the trace digests compare it",
	"marsim.Result.SimTime":              "hashed by TestTraceDigestsGolden; TestSoakTimeCompression bounds it",
	"marsim.Result.Calls":                "hashed by TestTraceDigestsGolden; the scenario tests bound it",
	"marsim.Result.OKs":                  "hashed by TestTraceDigestsGolden; the scenario tests bound it",
	"marsim.Result.Fails":                "hashed by TestTraceDigestsGolden; the scenario tests bound it",
	"marsim.Result.Client":               "hashed by TestTraceDigestsGolden",
	"marsim.Result.Server":               "hashed by TestTraceDigestsGolden; the scenario tests bound it",
	"marsim.TierResult.Prio":             "hashed by TestTraceDigestsGolden through Result.Tiers",
	"marsim.TierResult.Offered":          "hashed by TestTraceDigestsGolden through Result.Tiers",
	"marsim.TierResult.Succeeded":        "hashed by TestTraceDigestsGolden through Result.Tiers",
	"marsim.TierResult.P99":              "hashed by TestTraceDigestsGolden through Result.Tiers",
	"rpc.ClientStats.ServerExpired":      "hashed by TestTraceDigestsGolden (non-zero on congestion seeds 2 and 3)",
	"rpc.ClientStats.ServerCannotFinish": "hashed by TestTraceDigestsGolden (non-zero on congestion seed 2)",

	// benchmark/ is the repository benchmark's harness; it changes only
	// in a change to the benchmark itself, together with its baselines.
	"main.metricDef.Moves":  "benchmark/: documents which end-to-end metric a per-layer metric should move",
	"main.summary.ok":       "benchmark/: a window's successful calls, kept beside attempted and failed",
	"main.summary.hits":     "benchmark/: a window's deadline hits, kept beside attempted and failed",
	"main.workloadSpec.why": "benchmark/: the workload's rationale, mirrored in BENCHMARK.json",
}

// TestNoWriteOnlyFields fails on a struct field of the program that no
// non-test code reads, whether or not anything writes it: state that only
// a test looks at, or nothing does, is code that runs for no one. A read is
// any selector of the field except the left side of an assignment or an
// increment; a composite-literal key is a write. Exempt are `_` padding,
// embedded fields (read through what they promote), fields encoding/json
// marshals (a json tag other than "-"), and the fields of a struct
// non-test code passes whole to an fmt call.
func TestNoWriteOnlyFields(t *testing.T) {
	want := []string{"lib.Counters.Dropped", "lib.Counters.Written"}
	if got := guardNames(unreadFields(fixtureSource(t), map[string]string{"lib.Counters.Kept": "the fixture's allowlisted field"})); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("on the fixture: reported %v, want %v", got, want)
	}
	found, err := unreadFields(programSource(t), fieldAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s:%d %s: no non-test code reads it; delete it with its writes", f.pos.Filename, f.pos.Line, f.name)
	}
}

// guardNames is the names a guard run on the fixture reported, or its
// error.
func guardNames(found []reachFinding, err error) []string {
	if err != nil {
		return []string{err.Error()}
	}
	var names []string
	for _, f := range found {
		names = append(names, f.name)
	}
	return names
}

// unreadFields returns, sorted by name, every struct field declared in
// src's code that no selector of src's code reads, apart from the
// exemptions TestNoWriteOnlyFields names and the allowlist, whose every
// entry must name such a field.
func unreadFields(src *source, allow map[string]string) ([]reachFinding, error) {
	_, infos, err := typeCheck(src)
	if err != nil {
		return nil, err
	}
	read := map[*types.Var]bool{}
	printed := map[*types.Var]bool{}
	var markPrinted func(types.Type)
	markPrinted = func(typ types.Type) {
		switch u := typ.Underlying().(type) {
		case *types.Pointer:
			markPrinted(u.Elem())
		case *types.Slice:
			markPrinted(u.Elem())
		case *types.Array:
			markPrinted(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i).Origin(); !printed[f] {
					printed[f] = true
					if _, ptr := f.Type().Underlying().(*types.Pointer); !ptr {
						markPrinted(f.Type()) // %v prints a nested struct, not one behind a pointer
					}
				}
			}
		}
	}
	type declared struct {
		v   *types.Var
		pos token.Position
		key string
	}
	var fields []declared
	for i, p := range src.pkgs {
		info := infos[i]
		var declare func(prefix string, typ ast.Expr)
		declare = func(prefix string, typ ast.Expr) {
			ast.Inspect(typ, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					tag := ""
					if fld.Tag != nil {
						tag = reflect.StructTag(strings.Trim(fld.Tag.Value, "`")).Get("json")
					}
					for _, id := range fld.Names {
						if id.Name != "_" && (tag == "" || tag == "-") {
							fields = append(fields, declared{info.Defs[id].(*types.Var), src.fset.Position(id.Pos()), prefix + "." + id.Name})
						}
						declare(prefix+"."+id.Name, fld.Type)
					}
				}
				return false
			})
		}
		for _, f := range p.files {
			writes := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					declare(p.name()+"."+n.Name.Name, n.Type)
					return false
				case *ast.StructType:
					pos := src.fset.Position(n.Pos())
					declare(fmt.Sprintf("%s.struct@%d", p.name(), pos.Line), n)
					return false
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, l := range n.Lhs {
							writes[l] = true
						}
					}
				case *ast.IncDecStmt:
					writes[n.X] = true
				case *ast.CallExpr:
					if fn := callee(info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
						for _, arg := range n.Args {
							markPrinted(info.TypeOf(arg))
						}
					}
				case *ast.SelectorExpr:
					if sel, ok := info.Selections[n]; ok && sel.Kind() == types.FieldVal && !writes[n] {
						read[sel.Obj().(*types.Var).Origin()] = true
					}
				}
				return true
			})
		}
	}

	var found []reachFinding
	listed := map[string]bool{}
	for _, d := range fields {
		if read[d.v] || printed[d.v] {
			continue
		}
		if _, ok := allow[d.key]; ok {
			listed[d.key] = true
			continue
		}
		found = append(found, reachFinding{d.pos, d.key})
	}
	for key := range allow {
		if !listed[key] {
			return nil, fmt.Errorf("allowlist entry %s names no field that non-test code leaves unread", key)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found, nil
}

// callee is the function or method a call names, or nil for a call of a
// function value, a conversion or a builtin.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// name is the package's name as its files declare it.
func (p *sourcePkg) name() string { return p.files[0].Name.Name }

// lockAllow names the calls of a …Locked function the lock guard cannot
// follow, each with the reason. Keys are "caller calls callee" or, for a
// method value handed out to be called later, "caller passes callee".
var lockAllow = map[string]string{}

// TestLockedCalledUnderLock guards the lock discipline the …Locked suffix
// promises: such a function is called only from another …Locked function,
// or after a Lock (or RLock) in its caller with no Unlock on any path
// between. An Unlock inside a branch that ends in return, continue or break
// does not end the hold: that is the `if c.closed { c.mu.Unlock(); return }`
// idiom; a break or continue carries its lock state to where it goes. A
// loop's body is entered as its head is reached, from before the loop and
// from the end of every iteration. A function literal starts without the
// lock, and a method value of a …Locked function cannot be followed, so
// each is reported.
func TestLockedCalledUnderLock(t *testing.T) {
	want := []string{"lib.Box.Callback passes lib.Box.bumpLocked", "lib.Box.LoopRelease calls lib.Box.bumpLocked", "lib.Box.Relocked calls lib.Box.bumpLocked", "lib.Box.SwitchBreak calls lib.Box.bumpLocked", "lib.Box.Unlocked calls lib.Box.bumpLocked"}
	if got := guardNames(unlockedCalls(fixtureSource(t), map[string]string{"lib.Box.Kept calls lib.Box.bumpLocked": "the fixture's allowlisted call"})); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("on the fixture: reported %v, want %v", got, want)
	}
	found, err := unlockedCalls(programSource(t), lockAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s:%d %s, not seen under the lock: take it, make the caller …Locked, or name the call on lockAllow with the reason", f.pos.Filename, f.pos.Line, f.name)
	}
}

// unlockedCalls returns, sorted by name, every call of a …Locked function
// in src that TestLockedCalledUnderLock's rule does not see made under a
// lock, and every method value of one, apart from the allowlist, whose
// every entry must name such a call.
func unlockedCalls(src *source, allow map[string]string) ([]reachFinding, error) {
	_, infos, err := typeCheck(src)
	if err != nil {
		return nil, err
	}
	var found []reachFinding
	listed := map[string]bool{}
	for i, p := range src.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
					continue
				}
				caller := funcKey(infos[i].Defs[fd.Name].(*types.Func))
				w := lockWalk{info: infos[i], report: func(at ast.Node, fn *types.Func, how string) {
					key := caller + " " + how + " " + funcKey(fn)
					if _, ok := allow[key]; ok {
						listed[key] = true
						return
					}
					found = append(found, reachFinding{src.fset.Position(at.Pos()), key})
				}}
				w.stmt(fd.Body, false)
			}
		}
	}
	for key := range allow {
		if !listed[key] {
			return nil, fmt.Errorf("allowlist entry %s names no …Locked call the guard reports", key)
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found, nil
}

// lockWalk follows one function body in statement order, knowing at each
// statement whether a lock is held on every path that reaches it.
type lockWalk struct {
	info    *types.Info
	report  func(at ast.Node, fn *types.Func, how string)
	mute    int       // > 0 while a loop body is walked only to learn its end state
	label   string    // the label of the statement about to be walked
	targets []*target // the enclosing statements a break or continue can leave by
}

// flow is what reaches one point: whether any path does, and whether the
// lock is held on every path that does.
type flow struct{ reached, held bool }

func (f *flow) add(reached, held bool) { f.reached, f.held = join(f.reached, f.held, reached, held) }

// target is a loop, switch or select, and what its breaks and (for a
// loop) continues carry to where they go.
type target struct {
	label     string
	loop      bool
	brk, cont flow
}

func (w *lockWalk) push(label string, loop bool) *target {
	t := &target{label: label, loop: loop, brk: flow{held: true}, cont: flow{held: true}}
	w.targets = append(w.targets, t)
	return t
}

func (w *lockWalk) pop() { w.targets = w.targets[:len(w.targets)-1] }

// branch records a break or continue leaving with held at the statement it
// names, or the innermost one it can leave.
func (w *lockWalk) branch(s *ast.BranchStmt, held bool) {
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		if s.Label != nil && s.Label.Name != t.label || s.Label == nil && s.Tok == token.CONTINUE && !t.loop {
			continue
		}
		if s.Tok == token.BREAK {
			t.brk.add(true, held)
		} else {
			t.cont.add(true, held)
		}
		return
	}
}

// stmt walks s entered with the lock held or not, and returns whether s
// can fall through to the statement after it and, if so, whether the lock
// is then held on every path that does.
func (w *lockWalk) stmt(s ast.Stmt, held bool) (flows, heldAfter bool) {
	label := w.label
	w.label = ""
	switch s := s.(type) {
	case nil:
		return true, held
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.label = s.Label.Name
		return w.stmt(s.Stmt, held)
	case *ast.ReturnStmt:
		w.node(s, held)
		return false, held
	case *ast.BranchStmt:
		if s.Tok == token.BREAK || s.Tok == token.CONTINUE {
			w.branch(s, held)
		}
		return s.Tok == token.FALLTHROUGH, held
	case *ast.ExprStmt:
		return true, w.node(s.X, held)
	case *ast.DeferStmt:
		// The deferred call runs at return: a deferred Unlock does not
		// end the hold, and a deferred …Locked call is checked here.
		w.node(s.Call, held)
		return true, held
	case *ast.GoStmt:
		w.node(s.Call, false)
		return true, held
	case *ast.IfStmt:
		_, held = w.stmt(s.Init, held)
		held = w.node(s.Cond, held)
		f1, h1 := w.stmt(s.Body, held)
		f2, h2 := w.stmt(s.Else, held)
		return join(f1, h1, f2, h2)
	case *ast.ForStmt:
		_, held = w.stmt(s.Init, held)
		return w.loop(label, held, s.Cond, s.Body, s.Post)
	case *ast.RangeStmt:
		return w.loop(label, w.node(s.X, held), nil, s.Body, nil)
	case *ast.SwitchStmt:
		_, held = w.stmt(s.Init, held)
		return w.clauses(label, s.Body, w.node(s.Tag, held))
	case *ast.TypeSwitchStmt:
		_, held = w.stmt(s.Init, held)
		_, held = w.stmt(s.Assign, held)
		return w.clauses(label, s.Body, held)
	case *ast.SelectStmt:
		return w.clauses(label, s.Body, held)
	default: // assignments, declarations, sends, increments
		return true, w.node(s, held)
	}
}

func (w *lockWalk) stmts(list []ast.Stmt, held bool) (bool, bool) {
	for _, s := range list {
		flows, h := w.stmt(s, held)
		if !flows {
			return false, h
		}
		held = h
	}
	return true, held
}

// loop walks a for or range statement entered with held. Its head is
// reached from before the loop and from the end of every iteration, so
// when an iteration can come back without the lock the body is walked a
// second time, entered without it; only that walk reports.
func (w *lockWalk) loop(label string, held bool, cond ast.Expr, body *ast.BlockStmt, post ast.Stmt) (bool, bool) {
	if held {
		w.mute++
		back, _ := w.iteration(label, held, cond, body, post)
		w.mute--
		held = !back.reached || back.held
	}
	_, exit := w.iteration(label, held, cond, body, post)
	return exit.reached, exit.held
}

// iteration walks a loop once from its head, entered with held: the
// condition, the body and the post statement. It returns what reaches the
// head again, and what leaves the loop, by the condition or a break.
func (w *lockWalk) iteration(label string, held bool, cond ast.Expr, body *ast.BlockStmt, post ast.Stmt) (back, exit flow) {
	held = w.node(cond, held)
	t := w.push(label, true)
	t.cont.add(w.stmt(body, held))
	w.pop()
	back = flow{held: true}
	if t.cont.reached {
		back.add(w.stmt(post, t.cont.held))
	}
	exit = t.brk
	exit.add(true, held)
	return back, exit
}

// clauses walks a switch or select body: each clause is entered with the
// lock as it was, and without a default clause control may skip them all.
// A break in a clause leaves the switch or select, not the path.
func (w *lockWalk) clauses(label string, body *ast.BlockStmt, held bool) (bool, bool) {
	t := w.push(label, false)
	defer w.pop()
	flows, heldAfter, dflt := false, true, false
	for _, c := range body.List {
		var f, h bool
		switch c := c.(type) {
		case *ast.CaseClause:
			dflt = dflt || c.List == nil
			h = held
			for _, e := range c.List {
				h = w.node(e, h)
			}
			f, h = w.stmts(c.Body, h)
		case *ast.CommClause:
			dflt = dflt || c.Comm == nil
			_, h = w.stmt(c.Comm, held)
			f, h = w.stmts(c.Body, h)
		}
		flows, heldAfter = join(flows, heldAfter, f, h)
	}
	if !dflt {
		flows, heldAfter = join(flows, heldAfter, true, held)
	}
	return join(flows, heldAfter, t.brk.reached, t.brk.held)
}

// join merges two paths: control flows on if either does, and the lock is
// held after only if every path that flows holds it.
func join(f1, h1, f2, h2 bool) (bool, bool) {
	switch {
	case f1 && f2:
		return true, h1 && h2
	case f1:
		return true, h1
	case f2:
		return true, h2
	}
	return false, h1 && h2
}

// node checks the calls in n in source order and returns whether the lock
// is held after them: a sync Lock or RLock takes it, an Unlock or RUnlock
// releases it. A function literal's body is walked as a function of its
// own, entered without the lock.
func (w *lockWalk) node(n ast.Node, held bool) bool {
	if n == nil || reflect.ValueOf(n).IsNil() {
		return held
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			outer := w.targets
			w.targets = nil
			w.stmt(n.Body, false)
			w.targets = outer
			return false
		case *ast.CallExpr:
			// The arguments are evaluated before the call takes effect.
			for _, a := range n.Args {
				held = w.node(a, held)
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				held = w.node(sel.X, held)
			}
			fn := callee(w.info, n)
			switch {
			case fn == nil:
				held = w.node(n.Fun, held)
			case fn.Pkg() != nil && fn.Pkg().Path() == "sync" && (fn.Name() == "Lock" || fn.Name() == "RLock"):
				held = true
			case fn.Pkg() != nil && fn.Pkg().Path() == "sync" && (fn.Name() == "Unlock" || fn.Name() == "RUnlock"):
				held = false
			case strings.HasSuffix(fn.Name(), "Locked") && !held && w.mute == 0:
				w.report(n, fn, "calls")
			}
			return false
		case *ast.Ident:
			if fn, ok := w.info.Uses[n].(*types.Func); ok && strings.HasSuffix(fn.Name(), "Locked") && w.mute == 0 {
				w.report(n, fn, "passes")
			}
		}
		return true
	})
	return held
}

// funcKey is pkg.Name or pkg.Recv.Name.
func funcKey(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return fn.Pkg().Name() + "." + receiverName(recv.Type()) + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// simHosted is the packages the simulator runs on virtual time: one wall
// clock read in them and the same seed no longer gives the same trace.
var simHosted = []string{"wire", "rpc", "overload", "adapt", "core", "simnet", "marsim", "obs"}

// TestNoWallClockInSimHostedPackages fails on a call of time.Now, Since,
// Until, After, AfterFunc, NewTimer, NewTicker, Tick or Sleep in a package the
// simulator hosts: such a package reads the time from the clock it is
// handed. Handing time.Now or time.Sleep on as the default of a clock
// nobody injected is not a call.
func TestNoWallClockInSimHostedPackages(t *testing.T) {
	want := []string{"sim.Stamp calls time.Now", "sim.Timeout calls time.After", "sim.Wait calls time.Sleep"}
	if got := guardNames(wallClockCalls(fixtureSource(t), "reachfix/", []string{"sim"})); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("on the fixture: reported %v, want %v", got, want)
	}
	found, err := wallClockCalls(programSource(t), "marnet/internal/", simHosted)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s:%d %s: read the time from the clock the package is handed", f.pos.Filename, f.pos.Line, f.name)
	}
}

// wallClockCalls returns, sorted by name, every call of a wall-clock
// function of package time in the packages prefix+name (and their
// subpackages) for each name in pkgs.
func wallClockCalls(src *source, prefix string, pkgs []string) ([]reachFinding, error) {
	_, infos, err := typeCheck(src)
	if err != nil {
		return nil, err
	}
	var found []reachFinding
	for i, p := range src.pkgs {
		hosted := false
		for _, name := range pkgs {
			hosted = hosted || p.path == prefix+name || strings.HasPrefix(p.path, prefix+name+"/")
		}
		if !hosted {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				in := p.name()
				if fd, ok := d.(*ast.FuncDecl); ok {
					in = funcKey(infos[i].Defs[fd.Name].(*types.Func))
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if fn := callee(infos[i], call); isWallClock(fn) {
							found = append(found, reachFinding{src.fset.Position(call.Pos()), in + " calls time." + fn.Name()})
						}
					}
					return true
				})
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found, nil
}

// isWallClock reports whether fn is a function of package time that reads
// or waits on the wall clock.
func isWallClock(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick", "Sleep":
		return true
	}
	return false
}

// TestConnCoreIsPure guards wire's sans-I/O split: connCore, the protocol
// state Conn drives, and its multipath state (pathTable) hold no lock,
// clock, timer or socket, and none of their methods calls one or reads the
// wall clock — each works on the now its driver hands it, so the same core
// runs under any driver.
func TestConnCoreIsPure(t *testing.T) {
	want := []string{"lib.Core.Guarded calls sync.Mutex.Lock", "lib.Core.Guarded calls sync.Mutex.Unlock",
		"lib.Core.Tick calls lib.Ticker.Now", "lib.Core.Wall calls time.Now", "lib.Core.mu is a sync.Mutex", "lib.Core.tick is a lib.Ticker"}
	if got := guardNames(impureCore(fixtureSource(t), "reachfix/lib", "Core", []string{"reachfix/lib.Ticker"})); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("on the fixture: reported %v, want %v", got, want)
	}
	for _, typ := range []string{"connCore", "pathTable"} {
		found, err := impureCore(programSource(t), "marnet/internal/wire", typ,
			[]string{"marnet/internal/vclock.Clock", "marnet/internal/vclock.Timer", "marnet/internal/wire.PacketConn"})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range found {
			t.Errorf("%s:%d %s: the core takes its time from its caller and leaves locks, timers and writes to its driver", f.pos.Filename, f.pos.Line, f.name)
		}
	}
}

// TestConnCoreWalksNoMap guards the order of wire's per-packet walks: no
// field of connCore, of a stream (wstream), of its send window or of the
// path table is a map, and no method of theirs ranges over one. Map order
// is random, so a walk over a map needs a sort to stay deterministic; the
// send window visits in-flight frames in sequence order, the path table
// its paths in id order, with neither.
func TestConnCoreWalksNoMap(t *testing.T) {
	want := []string{"lib.Core.Seen ranges over a map", "lib.Core.seen is a map"}
	if got := guardNames(mapWalks(fixtureSource(t), "reachfix/lib", []string{"Core"})); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("on the fixture: reported %v, want %v", got, want)
	}
	found, err := mapWalks(programSource(t), "marnet/internal/wire", []string{"connCore", "wstream", "sendWindow", "pathTable"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s:%d %s: keep in-flight state in sequence order, not in a map", f.pos.Filename, f.pos.Line, f.name)
	}
}

// mapWalks returns, sorted by name, every map-typed field of the structs
// typs of package pkg and every range over a map in one of their methods.
func mapWalks(src *source, pkg string, typs []string) ([]reachFinding, error) {
	checked, infos, err := typeCheck(src)
	if err != nil {
		return nil, err
	}
	isMap := func(t types.Type) bool {
		_, ok := t.Underlying().(*types.Map)
		return ok
	}
	for i, p := range src.pkgs {
		if p.path != pkg {
			continue
		}
		var found []reachFinding
		for _, typ := range typs {
			obj := checked[i].Scope().Lookup(typ)
			if obj == nil {
				return nil, fmt.Errorf("no type %s in package %s", typ, pkg)
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				return nil, fmt.Errorf("%s.%s is not a struct", pkg, typ)
			}
			for j := 0; j < st.NumFields(); j++ {
				if isMap(st.Field(j).Type()) {
					found = append(found, reachFinding{src.fset.Position(st.Field(j).Pos()), p.name() + "." + typ + "." + st.Field(j).Name() + " is a map"})
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				recv := receiverName(infos[i].TypeOf(fd.Recv.List[0].Type))
				if !slices.Contains(typs, recv) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if rs, ok := n.(*ast.RangeStmt); ok && isMap(infos[i].TypeOf(rs.X)) {
						found = append(found, reachFinding{src.fset.Position(rs.Pos()), p.name() + "." + recv + "." + fd.Name.Name + " ranges over a map"})
					}
					return true
				})
			}
		}
		sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
		return found, nil
	}
	return nil, fmt.Errorf("no package %s", pkg)
}

// impureCore returns, sorted by name, every field of the struct typ of
// package pkg whose type (behind a pointer or not) is declared in package
// sync or sync/atomic or is one of banned ("path.Name"), and every call a
// method of typ makes on a value of such a type or of a wall-clock function
// of package time.
func impureCore(src *source, pkg, typ string, banned []string) ([]reachFinding, error) {
	checked, infos, err := typeCheck(src)
	if err != nil {
		return nil, err
	}
	impure := func(t types.Type) (string, bool) {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() == nil {
			return "", false
		}
		path := n.Obj().Pkg().Path()
		name := n.Obj().Pkg().Name() + "." + n.Obj().Name()
		return name, path == "sync" || path == "sync/atomic" || slices.Contains(banned, path+"."+n.Obj().Name())
	}
	for i, p := range src.pkgs {
		obj := checked[i].Scope().Lookup(typ)
		if p.path != pkg || obj == nil {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			return nil, fmt.Errorf("%s.%s is not a struct", pkg, typ)
		}
		prefix := p.name() + "." + typ
		var found []reachFinding
		for j := 0; j < st.NumFields(); j++ {
			if name, bad := impure(st.Field(j).Type()); bad {
				found = append(found, reachFinding{src.fset.Position(st.Field(j).Pos()), prefix + "." + st.Field(j).Name() + " is a " + name})
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil || receiverName(infos[i].TypeOf(fd.Recv.List[0].Type)) != typ {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := callee(infos[i], call)
					if isWallClock(fn) {
						found = append(found, reachFinding{src.fset.Position(call.Pos()), prefix + "." + fd.Name.Name + " calls time." + fn.Name()})
					}
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						if s := infos[i].Selections[sel]; s != nil && s.Kind() == types.MethodVal {
							if name, bad := impure(s.Recv()); bad {
								found = append(found, reachFinding{src.fset.Position(call.Pos()), prefix + "." + fd.Name.Name + " calls " + name + "." + sel.Sel.Name})
							}
						}
					}
					return true
				})
			}
		}
		sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
		return found, nil
	}
	return nil, fmt.Errorf("no type %s in package %s", typ, pkg)
}

// TestServingPathConcurrency guards the serving path's concurrency model:
// the admission gate is a state machine under one mutex that never blocks,
// and the rpc server pumps it, starting a goroutine only for a slot that
// has work. So non-test internal/overload has no go statement and no
// sync.Cond, and internal/rpc has one go statement — the slot's — and no
// sync.Cond either.
func TestServingPathConcurrency(t *testing.T) {
	src := programSource(t)
	_, infos, err := typeCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]int{"marnet/internal/overload": 0, "marnet/internal/rpc": 1}
	found := map[string]int{}
	for i, p := range src.pkgs {
		want, ok := sites[p.path]
		if !ok {
			continue
		}
		found[p.path] = 0
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if found[p.path]++; found[p.path] > want {
						t.Errorf("%s: go statement beyond the %d budgeted in %s", src.fset.Position(n.Pos()), want, p.path)
					}
				case *ast.Ident:
					if obj := infos[i].Uses[n]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Cond" || obj.Name() == "NewCond") {
						t.Errorf("%s: sync.%s: the serving path pumps a non-blocking gate; nothing parks on a condition", src.fset.Position(n.Pos()), obj.Name())
					}
				}
				return true
			})
		}
	}
	for path, want := range sites {
		got, ok := found[path]
		if !ok {
			t.Errorf("%s: no such package (drop the entry with the package)", path)
		} else if got != want {
			t.Errorf("%s: %d go statements, want %d (update this guard with the concurrency model)", path, got, want)
		}
	}
}

// TestOneTimerPerCall guards the rpc client's call engine: a call is driven
// by one timer, set for whichever of its instants comes next (the hedge,
// the attempt's timeout, the end of the retry backoff). So the non-test
// structs of internal/rpc hold one callTimer field in total, counting each
// name of a field list and each element of an array.
func TestOneTimerPerCall(t *testing.T) {
	const pkg = "marnet/internal/rpc"
	src := programSource(t)
	_, infos, err := typeCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	var timers func(types.Type) int64
	timers = func(typ types.Type) int64 {
		switch typ := typ.(type) {
		case *types.Named:
			if obj := typ.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Name() == "callTimer" {
				return 1
			}
		case *types.Pointer:
			return timers(typ.Elem())
		case *types.Array:
			return typ.Len() * timers(typ.Elem())
		}
		return 0
	}
	var fields []string
	total, found := int64(0), false
	for i, p := range src.pkgs {
		if p.path != pkg {
			continue
		}
		found = true
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					names := max(len(field.Names), 1) // an embedded field is one
					if k := int64(names) * timers(infos[i].TypeOf(field.Type)); k > 0 {
						total += k
						fields = append(fields, fmt.Sprintf("%s (%d)", src.fset.Position(field.Pos()), k))
					}
				}
				return true
			})
		}
	}
	if !found {
		t.Fatalf("%s: no such package (drop the guard with the package)", pkg)
	}
	if total != 1 {
		t.Errorf("%s holds %d callTimer fields, want 1 — one timer per call:\n\t%s", pkg, total, strings.Join(fields, "\n\t"))
	}
}
