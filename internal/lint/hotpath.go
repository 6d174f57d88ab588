package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// perCallTimers are the time functions that allocate a runtime timer per
// invocation. On a path that runs once per message, each of these is one
// heap object plus one runtime.timers entry per op.
var perCallTimers = map[string]bool{
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
	"After": true, "Tick": true,
}

// timerMethods are the *time.Timer methods that re-queue or dequeue the
// timer in the runtime's timer heap. Called once per message, they churn
// that heap, which every scheduler pass then walks.
var timerMethods = map[string]bool{"(*time.Timer).Reset": true, "(*time.Timer).Stop": true}

// registryLookups are the telemetry registry's string-keyed lookup methods.
// The lookups take a mutex and hash a name — setup-time work. The atomic
// operations on the metrics they return (Inc, Add, Observe, Set) are
// hot-path-safe; the rule is: register once, hold the pointer, update atomics
// per op.
var registryLookups = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
}

// telemetryPath is the metrics package whose registry lookups are flagged on
// hot paths.
const telemetryPath = "repro/internal/telemetry"

// Hotpath flags allocation- and syscall-per-op patterns in functions whose
// doc comment carries //edmlint:hotpath. The patterns are the ones that have
// actually shown up in this repo's per-message paths:
//
//   - fmt.* calls (interface boxing + formatting per op) — exempt inside a
//     return statement, where they build cold-path errors;
//   - &T{...} composite literals, which escape to the heap when the pointer
//     outlives the frame;
//   - make(map/chan) and make([]T, 0) with no useful capacity;
//   - append([]T(nil), src...) defensive copies;
//   - per-call timers (time.NewTimer and friends), and (*time.Timer).Reset
//     and Stop, which re-queue a timer per op (resolved through type
//     information, so only in typed packages);
//   - telemetry registry lookups (Counter/Gauge/Histogram by name) in files
//     importing repro/internal/telemetry: string-keyed map lookups behind a
//     mutex per op. Pre-register the metric and hold the pointer — the
//     atomic Inc/Add/Observe/Set calls on held metrics are hot-path-safe
//     and are deliberately not flagged.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag allocation/syscall-per-op patterns in //edmlint:hotpath functions",
	Run:  runHotpath,
}

func runHotpath(p *Package, d *Directives) []Finding {
	var out []Finding
	for _, f := range p.Files {
		fmtName := importName(f, "fmt")
		timeName := importName(f, "time")
		hasTelemetry := importName(f, telemetryPath) != ""
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !d.Hot(fn) {
				continue
			}
			out = append(out, checkHot(p, fn, fmtName, timeName, hasTelemetry)...)
		}
	}
	return out
}

// isRegistryLookup resolves a method call to the telemetry registry's
// string-keyed lookups through the type information, so a renamed import or
// a registry reached through a field chain is still caught, and an
// unrelated type's Counter method is not.
func isRegistryLookup(p *Package, sel *ast.SelectorExpr) bool {
	fn, ok := p.selObj(sel).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == telemetryPath &&
		registryLookups[fn.Name()]
}

// isTimerMethod resolves a method call to (*time.Timer).Reset or Stop.
func isTimerMethod(p *Package, sel *ast.SelectorExpr) bool {
	fn, ok := p.selObj(sel).(*types.Func)
	return ok && timerMethods[fn.FullName()]
}

// span is a position range, used to mark return statements so error
// formatting on the way out is not flagged.
type span struct{ from, to token.Pos }

func checkHot(p *Package, fn *ast.FuncDecl, fmtName, timeName string, hasTelemetry bool) []Finding {
	var returns []span
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, span{r.Pos(), r.End()})
		}
		return true
	})
	inReturn := func(pos token.Pos) bool {
		for _, s := range returns {
			if pos >= s.from && pos <= s.to {
				return true
			}
		}
		return false
	}

	finding := func(pos token.Pos, format string, args ...any) Finding {
		return Finding{
			Pos:      p.Fset.Position(pos),
			Analyzer: "hotpath",
			Message:  fmt.Sprintf(format, args...) + " in hot path " + fn.Name.Name,
		}
	}

	var out []Finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := node.X.(*ast.CompositeLit); ok {
					out = append(out, finding(node.Pos(), "&composite literal escapes to the heap"))
				}
			}
		case *ast.CallExpr:
			sel, isSel := node.Fun.(*ast.SelectorExpr)
			if isSel {
				// Registry lookups hash a metric name behind a mutex on
				// every call; the receiver can be any expression (a field
				// chain, a package-level registry). With type information
				// the method is resolved to the telemetry package exactly;
				// without it, match on name and arity once the file imports
				// the telemetry package. Atomic updates on held metric
				// pointers (Inc, Add, Observe, Set) stay unflagged.
				registryHit := registryLookups[sel.Sel.Name] && len(node.Args) == 1
				if p.Info != nil {
					registryHit = registryHit && isRegistryLookup(p, sel)
				} else {
					registryHit = registryHit && hasTelemetry
				}
				if registryHit {
					out = append(out, finding(node.Pos(),
						"telemetry registry lookup %s(name) per op; register once and hold the metric pointer", sel.Sel.Name))
				}
				// fmt and time resolve through the import binding when types
				// are available (robust to renamed imports and shadowing),
				// by local import name otherwise.
				isFmt, isTime := false, false
				if p.Info != nil {
					isFmt = p.isPkgIdent(sel.X, "fmt")
					isTime = p.isPkgIdent(sel.X, "time")
				} else if id, ok := sel.X.(*ast.Ident); ok {
					isFmt = fmtName != "" && id.Name == fmtName
					isTime = timeName != "" && id.Name == timeName
				}
				if isFmt && !inReturn(node.Pos()) {
					out = append(out, finding(node.Pos(), "fmt.%s allocates per op", sel.Sel.Name))
				}
				if isTime && perCallTimers[sel.Sel.Name] {
					out = append(out, finding(node.Pos(), "time.%s allocates a timer per op", sel.Sel.Name))
				}
				if p.Info != nil && isTimerMethod(p, sel) {
					out = append(out, finding(node.Pos(), "(*time.Timer).%s re-queues a runtime timer per op", sel.Sel.Name))
				}
				return true
			}
			id, ok := node.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			switch id.Name {
			case "make":
				out = append(out, checkMake(p, fn, node)...)
			case "append":
				// append([]T(nil), src...): a fresh defensive copy per call.
				if len(node.Args) >= 2 {
					if conv, ok := node.Args[0].(*ast.CallExpr); ok && len(conv.Args) == 1 {
						if lit, ok := conv.Args[0].(*ast.Ident); ok && lit.Name == "nil" {
							if _, isArr := conv.Fun.(*ast.ArrayType); isArr {
								out = append(out, finding(node.Pos(), "append([]T(nil), ...) copies per op"))
							}
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// checkMake flags make calls that allocate with no useful capacity: maps and
// channels built fresh per op, and zero-length zero-cap slices that will grow
// by reallocation.
func checkMake(p *Package, fn *ast.FuncDecl, call *ast.CallExpr) []Finding {
	if len(call.Args) == 0 {
		return nil
	}
	f := func(format string) []Finding {
		return []Finding{{
			Pos:      p.Fset.Position(call.Pos()),
			Analyzer: "hotpath",
			Message:  format + " in hot path " + fn.Name.Name,
		}}
	}
	switch call.Args[0].(type) {
	case *ast.MapType:
		if len(call.Args) == 1 {
			return f("make(map) without size hint allocates per op")
		}
	case *ast.ChanType:
		if len(call.Args) == 1 {
			return f("make(chan) per op; reuse a channel or pool")
		}
	case *ast.ArrayType:
		if len(call.Args) == 2 {
			if lit, ok := call.Args[1].(*ast.BasicLit); ok && lit.Value == "0" {
				return f("make([]T, 0) without capacity grows by reallocation")
			}
		}
	}
	return nil
}
