package hmmm

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// exportExempt are the internal packages whose only callers are tests
// by design.
var exportExempt = map[string]bool{
	"internal/faultinject":             true,
	"internal/retrieval/retrievaltest": true,
}

// exportSeams are the exported names in internal/ that only tests call,
// each with the reason a test needs it.
var exportSeams = map[string]string{
	"coalesce.Group.Inflight": "server tests check a hammer leaves no in-flight call behind",
	"coord.Coordinator.Retrieve": "mirrors Engine.Retrieve, which benchmark/ pins; " +
		"the coord, chaos and e2e tests call it",
	"hmmm.CompactSnapshot.MemoryBytes": "BenchmarkMillionShot reports the compact layout's size",
	"hmmm.Model.Clone": "Train tests compare a model against a deep copy taken before; " +
		"Train itself shares the A1 blocks it leaves alone",
	"index.Coarse.Edge": "index tests pin the proxy tables to a naive max over the model " +
		"from an external package; item 2(b) removes the coarse path",
	"index.Coarse.MaxPi1":     "as index.Coarse.Edge",
	"index.Coarse.PiSim":      "as index.Coarse.Edge",
	"index.Coarse.PostingLen": "as index.Coarse.Edge",
	"index.Coarse.Sim":        "as index.Coarse.Edge",
	"retrieval.CollectTracer": "retrieval tests count trace events; only tests set " +
		"Options.Tracer (an optionSeams entry)",
	"retrieval.CollectTracer.Count":  "as retrieval.CollectTracer",
	"retrieval.CollectTracer.Events": "as retrieval.CollectTracer",
	"retrieval.Engine.Model": "server tests check each published snapshot's engine " +
		"was built over its model",
	"rpc.ShardService.SetGeneration": "coord tests simulate a shard lagging a rollout",
	"shard.Group.Retrieve": "mirrors Engine.Retrieve, which benchmark/ pins; " +
		"the shard differential and hammer tests call it",
}

// TestExportsHaveCallers fails on an exported package-level name or
// exported method in internal/ that no non-test file of the module
// (examples/ included) references outside the name's own declaration,
// unless exportSeams lists it. A method also counts as called when its
// receiver implements an interface whose method of that name is
// referenced, or one the standard library calls (error, fmt.Stringer,
// gob.GobEncoder/GobDecoder, http.Handler). It also fails on a seam
// entry that has gained a caller or names nothing.
func TestExportsHaveCallers(t *testing.T) {
	ld := loadModule(t)
	all := map[*types.Package][]*ast.File{}
	for pkg, files := range ld.files {
		all[pkg] = files
	}
	for pkg, files := range loadExamples(t, ld) {
		all[pkg] = files
	}

	used := map[types.Object]bool{}
	// ifaces maps a method name to the interfaces whose method of that
	// name is referenced.
	ifaces := map[string][]*types.Interface{}
	addIface := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i).Name()
			ifaces[m] = append(ifaces[m], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, std := range []struct{ path, name string }{
		{"fmt", "Stringer"},
		{"encoding/gob", "GobEncoder"},
		{"encoding/gob", "GobDecoder"},
		{"net/http", "Handler"},
	} {
		pkg, err := ld.std.Import(std.path)
		if err != nil {
			t.Fatal(err)
		}
		addIface(pkg.Scope().Lookup(std.name).Type().Underlying().(*types.Interface))
	}

	for _, files := range all {
		for _, f := range files {
			for _, decl := range f.Decls {
				collectUses(ld.info, decl, func(obj types.Object) {
					used[obj] = true
					if fn, ok := obj.(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
								ifaces[fn.Name()] = append(ifaces[fn.Name()], iface)
							}
						}
					}
				})
			}
		}
	}

	called := func(obj types.Object) bool {
		if used[obj] {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		// *T's method set holds T's too.
		for _, iface := range ifaces[fn.Name()] {
			if types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	var uncalled, stale []string
	seen := map[string]bool{}
	check := func(name string, obj types.Object) {
		seen[name] = true
		_, seam := exportSeams[name]
		switch c := called(obj); {
		case !c && !seam:
			uncalled = append(uncalled, name)
		case c && seam:
			stale = append(stale, name)
		}
	}
	for path, pkg := range ld.pkgs {
		rel := strings.TrimPrefix(path, modulePath+"/")
		if !strings.HasPrefix(rel, "internal/") || exportExempt[rel] {
			continue
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			check(pkg.Name()+"."+n, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					check(pkg.Name()+"."+n+"."+m.Name(), m)
				}
			}
		}
	}
	for name := range exportSeams {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	slices.Sort(uncalled)
	slices.Sort(stale)
	for _, name := range uncalled {
		t.Errorf("%s: no non-test file calls it; delete it or list it in exportSeams", name)
	}
	for _, name := range stale {
		t.Errorf("%s: exportSeams lists it, but it is not an exported name only tests call", name)
	}
}

// collectUses calls use with the generic origin of every object decl
// references, except the references that belong to the declaration of
// the name itself: a function's references to itself, and a type's
// references to itself from its own spec and its methods' receivers.
func collectUses(info *types.Info, decl ast.Decl, use func(types.Object)) {
	visit := func(n ast.Node, self types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj != nil && obj != self {
				use(obj)
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := info.Defs[d.Name]
		if d.Recv != nil {
			for _, field := range d.Recv.List {
				visit(field.Type, recvTypeName(info, field.Type))
			}
		}
		visit(d.Type, self)
		if d.Body != nil {
			visit(d.Body, self)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var self types.Object
			if ts, ok := spec.(*ast.TypeSpec); ok {
				self = info.Defs[ts.Name]
			}
			visit(spec, self)
		}
	}
}

// recvTypeName returns the type a method receiver expression names:
// T, *T, T[K] or *T[K, V].
func recvTypeName(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return info.Uses[x]
		default:
			return nil
		}
	}
}
