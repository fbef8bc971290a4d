package hmmm

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// catalogRow matches a row of README's metrics tables and captures the
// family name (without its label list).
var catalogRow = regexp.MustCompile("^\\| `(hmmm_[a-z0-9_]+)")

// TestMetricCatalog holds README's metrics tables to the registry: a
// hmmm_* family that a non-test file registers on an obs.Registry must
// be a row, and a row must name a registered family.
func TestMetricCatalog(t *testing.T) {
	ld := loadModule(t)
	registered := map[string]bool{}
	for _, files := range ld.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if fn, ok := ld.info.Uses[sel.Sel].(*types.Func); !ok || !registers(fn) {
					return true
				}
				name := ld.info.Types[call.Args[0]].Value
				if name == nil || name.Kind() != constant.String {
					t.Errorf("%s: registers a family whose name is not a constant", ld.fset.Position(call.Pos()))
					return true
				}
				if s := constant.StringVal(name); strings.HasPrefix(s, "hmmm_") {
					registered[s] = true
				}
				return true
			})
		}
	}
	if len(registered) == 0 {
		t.Fatal("found no registered hmmm_* family; the registry scan is broken")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if m := catalogRow.FindStringSubmatch(line); m != nil {
			documented[m[1]] = true
		}
	}

	var undocumented, unregistered []string
	for name := range registered {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			unregistered = append(unregistered, name)
		}
	}
	slices.Sort(undocumented)
	slices.Sort(unregistered)
	for _, name := range undocumented {
		t.Errorf("%s is registered but not a row of README's metrics tables", name)
	}
	for _, name := range unregistered {
		t.Errorf("README's metrics tables list %s, which nothing registers", name)
	}
}

// registers reports whether fn is an exported *obs.Registry method
// whose first parameter names the family it registers.
func registers(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	return fn.Exported() && sig.Recv() != nil &&
		types.TypeString(sig.Recv().Type(), nil) == "*"+modulePath+"/internal/obs.Registry" &&
		sig.Params().Len() > 0 && sig.Params().At(0).Name() == "name"
}
