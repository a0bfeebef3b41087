package lint

import (
	"go/ast"
	"go/types"
)

// StreamCloseTypes are the stream types whose Close/Flush errors carry
// data-integrity information: PR 5's Close audit made the serial writer
// repeat its first flush error and poisoned reads after Reader.Close,
// so discarding these errors discards a truncated-output signal.
var StreamCloseTypes = map[string]bool{
	"Writer": true, "Reader": true,
}

// streamClosePkg is the package whose stream types are checked — the
// module root.
const streamClosePkg = "zipline"

// StreamClose requires every Close/Flush error on a zipline stream type
// to be checked in main packages (cmd/ and examples/): no bare
// statement calls, no bare defers, no blank assignments.
var StreamClose = &Analyzer{
	Name: "streamclose",
	Doc:  "require checked Close/Flush errors on zipline stream types in main packages",
	Run:  runStreamClose,
}

func runStreamClose(pass *Pass) {
	if pass.Pkg.Name() != "main" {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if name, method, ok := streamCloseCall(pass.Info, n.X); ok {
					pass.Reportf(n.Pos(), "error from (*%s.%s).%s is discarded; a dropped %s error hides truncated output", streamClosePkg, name, method, method)
				}
			case *ast.DeferStmt:
				if name, method, ok := streamCloseCall(pass.Info, n.Call); ok {
					pass.Reportf(n.Pos(), "deferred (*%s.%s).%s discards its error; close explicitly and check it", streamClosePkg, name, method)
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				name, method, ok := streamCloseCall(pass.Info, n.Rhs[0])
				if !ok {
					return true
				}
				for _, lhs := range n.Lhs {
					if id, isIdent := lhs.(*ast.Ident); !isIdent || id.Name != "_" {
						return true
					}
				}
				pass.Reportf(n.Pos(), "error from (*%s.%s).%s assigned to blank; check it", streamClosePkg, name, method)
			}
			return true
		})
	}
}

// streamCloseCall reports whether e is a Close/Flush call on one of the
// zipline stream types, returning the type and method names.
func streamCloseCall(info *types.Info, e ast.Expr) (typeName, method string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	fn := funcObj(info, call)
	if fn == nil {
		return "", "", false
	}
	if fn.Name() != "Close" && fn.Name() != "Flush" {
		return "", "", false
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return "", "", false
	}
	t := recv.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != streamClosePkg || !StreamCloseTypes[obj.Name()] {
		return "", "", false
	}
	// Only error-returning signatures carry a checkable signal.
	if sig.Results().Len() != 1 || sig.Results().At(0).Type().String() != "error" {
		return "", "", false
	}
	return obj.Name(), fn.Name(), true
}
