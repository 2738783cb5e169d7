package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism flags the two statically detectable ways a simulation artifact
// goes nondeterministic:
//
//  1. ranging over a map while the loop body reaches an encoder, formatter,
//     or hash sink — map iteration order leaks into output bytes unless the
//     keys are collected and sorted first (the PR 3 `-json` bug);
//  2. consulting wall-clock time or math/rand inside a simulation-semantic
//     package, where internal/xrand is the only legal entropy source — the
//     same seed must always produce the same machine.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "map-order-dependent output and ambient entropy in simulation packages",
	New:  func() Instance { return &determinism{} },
}

// simSemantic is the set of packages (by directory name) whose behaviour
// must be a pure function of configuration and seed.
var simSemantic = map[string]bool{
	"engine": true, "core": true, "ooo": true, "inorder": true, "mem": true,
	"pipeline": true, "predictor": true, "sample": true, "ckpt": true,
}

type determinism struct{}

func (*determinism) Finish(Reporter) {}

func (d *determinism) Package(pass *Pass) {
	sinks := sinkSummaries(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if pos, desc := firstSink(pass, sinks, rng.Body); pos.IsValid() {
				pass.Report(pos, "%s inside range over map: iteration order leaks into output; collect and sort the keys first", desc)
			}
			return true
		})
	}
	if simSemantic[pkgBase(pass.Pkg.Path())] {
		d.checkEntropy(pass)
	}
}

// sinkSummaries computes, per package-level function, whether its body calls
// an output sink directly or (transitively, within the package) through
// another local function. The range-over-map check then treats a call to
// such a function as a sink too, so extracting fmt.Fprintf into a helper
// does not launder the nondeterminism.
func sinkSummaries(pass *Pass) map[*types.Func]bool {
	direct := make(map[*types.Func]bool)
	calls := make(map[*types.Func][]*types.Func)
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, desc := directSink(pass, call); desc != "" {
				direct[fn] = true
			} else if callee := calleeOf(pass.Info, call); callee != nil && callee.Pkg() == pass.Pkg {
				calls[fn] = append(calls[fn], callee)
			}
			return true
		})
	})
	// Propagate sink-ness up the intra-package call graph to a fixpoint.
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if direct[fn] {
				continue
			}
			for _, c := range callees {
				if direct[c] {
					direct[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return direct
}

// directSink classifies a call as an output sink: fmt formatting, JSON
// encoding, io.WriteString, or a hash/digest write.
func directSink(pass *Pass, call *ast.CallExpr) (token.Pos, string) {
	fn := calleeOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		// Interface calls: a Write on a hash.Hash arrives here.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := pass.Info.Selections[sel]; ok && s.Kind() == types.MethodVal &&
				types.IsInterface(s.Recv()) && isHashType(s.Recv()) &&
				(sel.Sel.Name == "Write" || sel.Sel.Name == "Sum") {
				return call.Pos(), "hash write"
			}
		}
		return token.NoPos, ""
	}
	switch fn.Pkg().Path() {
	case "fmt":
		// Only the writing entry points: fmt.Errorf/Sprintf construct
		// values, they don't emit bytes anywhere order could leak.
		switch fn.Name() {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return call.Pos(), "call to fmt." + fn.Name()
		}
	case "encoding/json":
		// Encoding direction only: decoding can't leak iteration order.
		switch fn.Name() {
		case "Marshal", "MarshalIndent", "Encode":
			return call.Pos(), "call to json." + fn.Name()
		}
	case "io":
		if fn.Name() == "WriteString" {
			return call.Pos(), "call to io.WriteString"
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isHashType(sig.Recv().Type()) {
		if fn.Name() == "Write" || fn.Name() == "Sum" {
			return call.Pos(), "hash write"
		}
	}
	return token.NoPos, ""
}

// isHashType reports whether t is (or points to) a type from a hash package
// (hash, crypto/*, hash/*).
func isHashType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "hash" || hasPrefix(path, "hash/") || hasPrefix(path, "crypto")
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// firstSink finds the first sink reached from body: a direct sink call or a
// call to a same-package function whose summary says it sinks. A sort.* or
// slices.Sort* call appearing before any sink clears the body — the loop is
// the canonical collect-then-sort idiom written inline.
func firstSink(pass *Pass, sinks map[*types.Func]bool, body *ast.BlockStmt) (token.Pos, string) {
	var pos token.Pos
	var desc string
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if pos.IsValid() || sorted {
			return false
		}
		// Work dispatched concurrently from the loop never sees iteration
		// order — goroutines interleave regardless — so writes inside a go
		// statement are the collector's ordering problem, not this loop's.
		if _, isGo := n.(*ast.GoStmt); isGo {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeOf(pass.Info, call); fn != nil && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sort", "slices":
				sorted = true
				return false
			}
			if sinks[fn] && fn.Pkg() == pass.Pkg {
				pos, desc = call.Pos(), "call to "+fn.Name()+" (which writes output)"
				return false
			}
		}
		if p, d := directSink(pass, call); p.IsValid() {
			pos, desc = p, d
			return false
		}
		return true
	})
	if sorted {
		return token.NoPos, ""
	}
	return pos, desc
}

// checkEntropy flags wall-clock and math/rand uses in simulation packages.
func (d *determinism) checkEntropy(pass *Pass) {
	for ident, obj := range pass.Info.Uses {
		pkg := obj.Pkg()
		if pkg == nil {
			continue
		}
		switch pkg.Path() {
		case "time":
			if fn, ok := obj.(*types.Func); ok {
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Report(ident.Pos(), "time.%s in simulation package %s: simulated time must not depend on the wall clock", fn.Name(), pkgBase(pass.Pkg.Path()))
				}
			}
		case "math/rand", "math/rand/v2":
			pass.Report(ident.Pos(), "%s.%s in simulation package %s: internal/xrand is the only legal entropy source", pkg.Name(), obj.Name(), pkgBase(pass.Pkg.Path()))
		}
	}
}
