package lint

import (
	"go/ast"
	"go/types"
)

// HTTPClient returns the httpclient analyzer. Library code (any
// non-main package) must not build HTTP clients that can hang forever
// or detach from the caller's cancellation chain — the exact failure
// mode the distributed serving tier (the routing front)
// turns from a stuck goroutine into a stuck cluster:
//
//   - an http.Client composite literal must set Timeout explicitly
//     (a zero Timeout client waits on a dead peer indefinitely; clients
//     that stream unbounded responses suppress with a reason and bound
//     the transport instead),
//   - the package-level helpers http.Get/Head/Post/PostForm are
//     forbidden: they ride http.DefaultClient (no timeout) and take no
//     context,
//   - http.NewRequest is forbidden in favor of
//     http.NewRequestWithContext, so every outbound request can be
//     cancelled by its caller.
func HTTPClient() *Analyzer {
	return &Analyzer{
		Name: "httpclient",
		Doc:  "forbids unbounded or context-free HTTP clients in library code",
		Run: func(pass *Pass) {
			if pass.Pkg.Types.Name() == "main" {
				return // binaries own their process lifetime
			}
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						checkClientLit(pass, n)
					case *ast.CallExpr:
						checkHTTPCall(pass, n)
					}
					return true
				})
			}
		},
	}
}

// checkClientLit flags http.Client{...} literals without an explicit
// Timeout key.
func checkClientLit(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Pkg.Info.Types[lit]
	if !ok || !isHTTPClientType(tv.Type) {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Timeout" {
			return
		}
	}
	pass.Reportf(lit.Pos(), "http.Client without an explicit Timeout can hang forever on a dead peer; set Timeout (or bound the Transport and suppress with a reason)")
}

// checkHTTPCall flags the context-free net/http package helpers.
func checkHTTPCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	switch fn.FullName() {
	case "net/http.Get", "net/http.Head", "net/http.Post", "net/http.PostForm":
		pass.Reportf(call.Pos(), "http.%s uses http.DefaultClient (no timeout) and takes no context; build the request with http.NewRequestWithContext and a client with a Timeout", fn.Name())
	case "net/http.NewRequest":
		pass.Reportf(call.Pos(), "http.NewRequest detaches the request from the caller's context; use http.NewRequestWithContext")
	}
}

// isHTTPClientType reports whether t is net/http.Client.
func isHTTPClientType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Client" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}
