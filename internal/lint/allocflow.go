package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Allocflow statically polices the //lint:zeroalloc annotation: an
// annotated function — and everything it statically calls within the
// module — must be free of idioms that allocate on every execution of the
// steady-state path. Timeline.Walk, the fused strategy scratch, and the
// core.Memo table lookup run at 0 allocs/event, pinned by generated
// AllocsPerRun tests (cmd/allocguard); this analyzer is the
// compiler-adjacent half of the same contract, so a regression is caught at
// lint time with a file:line, not as an opaque bench delta.
//
// Two classes of finding:
//
//  1. Anywhere in the annotated closure: calls into a watchlist of
//     always-allocating functions — fmt formatting (which also boxes every
//     argument into ...any), strings/bytes builders and splitters,
//     errors.New, slices.Clone, sort.Slice's closure+boxing, regexp,
//     reflect — plus `go` statements (a goroutine is never free).
//
//  2. Inside the per-event path — any for/range loop, and the body of any
//     function literal defined in the closure (callbacks handed to a
//     replay loop run once per event): make/new, slice, map and &T{}
//     composite literals, per-iteration func literals and defers,
//     string<->[]byte conversions, string concatenation, and appends onto
//     a freshly constructed slice (`append([]T(nil), ...)` — the
//     clone-per-event shape). Appends that grow a reused buffer
//     (`buf = append(buf, ...)`) are the warm-up idiom the hot paths are
//     built on and stay exempt.
//
// A deliberate allocation (a retained return value, a documented
// once-per-call clone) is annotated `//lint:allow allocflow <reason>` at
// the call site. Dangling //lint:zeroalloc directives — attached to
// anything but a function declaration — are reported, so an annotation
// cannot silently annotate nothing.
var Allocflow = &Analyzer{
	Name:      "allocflow",
	Doc:       "//lint:zeroalloc functions and their static module callees must not allocate on the steady-state path",
	RunModule: runAllocflow,
}

// modulePathPrefix marks packages whose function bodies the closure walk
// may enter; everything else (the standard library) is judged only by the
// watchlist.
const modulePathPrefix = "locind/"

// declSite locates one function declaration in its package.
type declSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

func runAllocflow(mp *ModulePass) error {
	// Index every function declaration in view by its types.Func object.
	index := map[*types.Func]declSite{}
	for _, pkg := range mp.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					index[fn] = declSite{pkg: pkg, decl: fd}
				}
			}
		}
	}

	// Roots: annotated declarations. Dangling directives are findings.
	type rootInfo struct {
		site   declSite
		symbol string
	}
	var roots []rootInfo
	for _, pkg := range mp.Pkgs {
		decls, consumed := zeroallocDecls(pkg)
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if _, ok := ParseZeroalloc(c.Text); ok && !consumed[c] {
						mp.Reportf(pkg, c.Pos(), "//lint:zeroalloc is not the doc comment of a function declaration; it annotates nothing")
					}
				}
			}
		}
		for fd, sym := range decls {
			roots = append(roots, rootInfo{site: declSite{pkg: pkg, decl: fd}, symbol: sym})
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		a, b := roots[i], roots[j]
		if a.site.pkg.Path != b.site.pkg.Path {
			return a.site.pkg.Path < b.site.pkg.Path
		}
		return a.symbol < b.symbol
	})

	// Breadth-first closure over static module calls. Each function is
	// checked once, attributed to the first root that reaches it.
	type queued struct {
		site declSite
		root string
	}
	visited := map[*ast.FuncDecl]bool{}
	var queue []queued
	for _, r := range roots {
		if !visited[r.site.decl] {
			visited[r.site.decl] = true
			queue = append(queue, queued{site: r.site, root: r.symbol})
		}
	}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		checkZeroallocBody(mp, q.site, q.root)
		ast.Inspect(q.site.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(q.site.pkg.Info, call)
			if fn == nil || !strings.HasPrefix(funcPkgPath(fn), modulePathPrefix) {
				return true
			}
			site, ok := index[fn]
			if !ok || visited[site.decl] {
				return true
			}
			visited[site.decl] = true
			queue = append(queue, queued{site: site, root: q.root})
			return true
		})
	}
	return nil
}

// checkZeroallocBody applies the allocation rules to one closure function.
func checkZeroallocBody(mp *ModulePass, site declSite, root string) {
	pkg, fd := site.pkg, site.decl
	info := pkg.Info
	where := func() string {
		if sym := FuncSymbol(fd); sym != root {
			return sym + " (in the //lint:zeroalloc closure of " + root + ")"
		}
		return "//lint:zeroalloc " + root
	}

	inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		perEvent := inPerEventPath(stack)
		switch n := n.(type) {
		case *ast.GoStmt:
			mp.Reportf(pkg, n.Pos(), "go statement in %s: spawning a goroutine allocates", where())
		case *ast.DeferStmt:
			if perEvent {
				mp.Reportf(pkg, n.Pos(), "defer inside the per-event path of %s allocates per iteration", where())
			}
		case *ast.FuncLit:
			if loopDepth(stack) > 0 {
				mp.Reportf(pkg, n.Pos(), "function literal inside a loop in %s: the closure is allocated per iteration", where())
			}
		case *ast.CompositeLit:
			if perEvent && !insideCompositeLit(stack) {
				switch info.Types[n].Type.Underlying().(type) {
				case *types.Slice:
					mp.Reportf(pkg, n.Pos(), "slice literal inside the per-event path of %s allocates per event", where())
				case *types.Map:
					mp.Reportf(pkg, n.Pos(), "map literal inside the per-event path of %s allocates per event", where())
				}
			}
		case *ast.UnaryExpr:
			if perEvent && n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					mp.Reportf(pkg, n.Pos(), "&composite literal inside the per-event path of %s escapes to the heap per event", where())
				}
			}
		case *ast.BinaryExpr:
			if perEvent && n.Op.String() == "+" && isStringType(info.Types[n].Type) && !isConstExpr(info, n) {
				mp.Reportf(pkg, n.Pos(), "string concatenation inside the per-event path of %s allocates per event", where())
			}
		case *ast.CallExpr:
			checkZeroallocCall(mp, site, n, perEvent, where)
		}
		return true
	})
}

// checkZeroallocCall applies the call rules: builtins (make/new/append),
// allocating conversions, and the always-allocates watchlist.
func checkZeroallocCall(mp *ModulePass, site declSite, call *ast.CallExpr, perEvent bool, where func() string) {
	pkg := site.pkg
	info := pkg.Info

	// Builtins and conversions.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && info.Uses[id] != nil {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				// Outside the per-event path make/new is warm-up state
				// (pre-sized buffers, the documented output map) and allowed.
				if perEvent {
					mp.Reportf(pkg, call.Pos(), "%s inside the per-event path of %s allocates per event", id.Name, where())
				}
			case "append":
				if perEvent && len(call.Args) > 0 && freshSliceExpr(info, call.Args[0]) {
					mp.Reportf(pkg, call.Pos(), "append onto a fresh slice inside the per-event path of %s clones per event; reuse a warmed buffer", where())
				}
			}
			return
		}
	}
	if conv, ok := allocatingConversion(info, call); ok && perEvent {
		mp.Reportf(pkg, call.Pos(), "%s conversion inside the per-event path of %s allocates per event", conv, where())
		return
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if reason := alwaysAllocates(fn); reason != "" {
		mp.Reportf(pkg, call.Pos(), "%s in %s: %s", calleeLabel(fn), where(), reason)
	}
}

// inPerEventPath reports whether the current node (with ancestor stack)
// sits on the per-event path: inside a for/range loop, or inside a
// function literal (callbacks handed to replay loops run once per event; a
// literal that runs once is the rare case and earns an //lint:allow).
func inPerEventPath(stack []ast.Node) bool {
	if loopDepth(stack) > 0 {
		return true
	}
	for _, a := range stack {
		if _, ok := a.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// loopDepth counts for/range ancestors of the current node.
func loopDepth(stack []ast.Node) int {
	depth := 0
	for _, a := range stack {
		switch a.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			depth++
		}
	}
	return depth
}

// insideCompositeLit reports whether the direct parent is itself a
// composite literal (nested element literals are part of one allocation,
// not extra ones).
func insideCompositeLit(stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	_, ok := stack[len(stack)-1].(*ast.CompositeLit)
	return ok
}

// freshSliceExpr reports whether e constructs a brand-new slice: a
// composite literal, a make call, or a `[]T(nil)`-style conversion —
// append onto any of these allocates unconditionally.
func freshSliceExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return id.Name == "make"
			}
		}
		// Conversion to a slice type.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			_, isSlice := tv.Type.Underlying().(*types.Slice)
			return isSlice
		}
	}
	return false
}

// allocatingConversion recognizes string<->[]byte/[]rune conversions.
func allocatingConversion(info *types.Info, call *ast.CallExpr) (string, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) == 0 {
		return "", false
	}
	to := tv.Type.Underlying().String()
	from := ""
	if t := info.Types[call.Args[0]].Type; t != nil {
		from = t.Underlying().String()
	}
	switch {
	case to == "string" && (from == "[]byte" || from == "[]rune"):
		return from + "→string", true
	case (to == "[]byte" || to == "[]rune") && from == "string":
		return "string→" + to, true
	}
	return "", false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func calleeLabel(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return lastSegment(funcPkgPath(fn)) + "." + fn.Name()
}

// alwaysAllocates is the watchlist: functions whose every call allocates
// (or boxes arguments into interfaces, which allocates). Returns "" for
// functions not on the list.
func alwaysAllocates(fn *types.Func) string {
	path := funcPkgPath(fn)
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recvName := named.Obj().Name()
			switch {
			case path == "strings" && recvName == "Builder":
				return "strings.Builder grows a heap buffer"
			case path == "strings" && recvName == "Replacer":
				return "strings.Replacer allocates its output"
			case path == "bytes" && recvName == "Buffer" && name == "String":
				return "Buffer.String copies the buffer into a fresh string"
			}
		}
		return ""
	}
	switch path {
	case "fmt":
		return "fmt formatting allocates and boxes every argument into ...any"
	case "regexp", "reflect":
		return path + " is never allocation-free"
	case "errors":
		if name == "New" || name == "Join" {
			return "errors." + name + " allocates a fresh error"
		}
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable":
			return "sort." + name + " boxes its argument (use a typed slices.SortFunc or a hand-rolled sift)"
		}
	case "slices":
		switch name {
		case "Clone", "Collect", "Sorted", "Concat":
			return "slices." + name + " allocates its result"
		}
	case "maps":
		switch name {
		case "Clone", "Collect":
			return "maps." + name + " allocates its result"
		}
	case "strings":
		switch name {
		case "Join", "Repeat", "Replace", "ReplaceAll", "Split", "SplitN",
			"SplitAfter", "SplitAfterN", "Fields", "FieldsFunc", "Map",
			"ToUpper", "ToLower", "Title", "Clone":
			return "strings." + name + " allocates its result"
		}
	case "bytes":
		switch name {
		case "Clone", "Join", "Repeat", "Split", "SplitN", "SplitAfter",
			"SplitAfterN", "Fields", "ToUpper", "ToLower":
			return "bytes." + name + " allocates its result"
		}
	case "strconv":
		switch name {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "Quote",
			"QuoteRune", "Unquote":
			return "strconv." + name + " allocates its result (the Append variants reuse a buffer)"
		}
	}
	return ""
}
