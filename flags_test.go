package hmmm

import (
	"go/ast"
	"go/build"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// flagCommands are the commands whose package doc is their flag
// reference.
var flagCommands = []string{
	"cmd/hmmmd", "cmd/hmmm-shardd", "cmd/hmmmload",
	"cmd/hmmm-gen", "cmd/hmmmctl", "cmd/hmmm-experiments",
}

// flagDefiners maps each flag-defining function of package flag (and
// method of flag.FlagSet) to the index of its name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Int64Var": 1, "IntVar": 1,
	"StringVar": 1, "TextVar": 1, "Uint64Var": 1, "UintVar": 1, "Var": 1,
}

var (
	// docFlag matches a -name flag mention in a package doc.
	docFlag = regexp.MustCompile(`(?:^|[\s(,"])-([a-z][a-z0-9]*(?:-[a-z0-9]+)*)\b`)
	// codeSpan matches a quoted command line, whose flags may be another
	// command's (`hmmmd -coord` in hmmm-shardd's doc).
	codeSpan = regexp.MustCompile("`[^`\n]*`")
)

// TestFlagsDocumented holds each command of flagCommands to its package
// doc: every flag the command defines, directly or through a module
// function it calls (boot.Archive.RegisterFlags), must be mentioned as
// -name outside a code span, and every such mention must be a flag the
// command defines.
func TestFlagsDocumented(t *testing.T) {
	ld := loadModule(t)
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, files := range ld.files {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := ld.info.Defs[fd.Name].(*types.Func); ok {
						decls[fn] = fd
					}
				}
			}
		}
	}

	for _, cmd := range flagCommands {
		t.Run(cmd, func(t *testing.T) {
			pkg := ld.pkgs[importPath(cmd)]
			if pkg == nil {
				t.Fatalf("package %s not loaded", cmd)
			}
			defined := map[string]bool{}
			seen := map[*types.Func]bool{}
			var visit func(n ast.Node)
			visit = func(n ast.Node) {
				ast.Inspect(n, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					var id *ast.Ident
					switch fun := ast.Unparen(call.Fun).(type) {
					case *ast.Ident:
						id = fun
					case *ast.SelectorExpr:
						id = fun.Sel
					default:
						return true
					}
					fn, ok := ld.info.Uses[id].(*types.Func)
					if !ok || fn.Pkg() == nil {
						return true
					}
					fn = fn.Origin()
					if fn.Pkg().Path() == "flag" {
						if i, ok := flagDefiners[fn.Name()]; ok {
							name := ld.info.Types[call.Args[i]].Value
							if name == nil || name.Kind() != constant.String {
								t.Errorf("%s: defines a flag whose name is not a constant", ld.fset.Position(call.Pos()))
								return true
							}
							defined[constant.StringVal(name)] = true
						}
						return true
					}
					if fn.Pkg() != pkg && !seen[fn] && decls[fn] != nil {
						seen[fn] = true
						visit(decls[fn].Body)
					}
					return true
				})
			}
			for _, f := range ld.files[pkg] {
				visit(f)
			}
			if len(defined) == 0 {
				t.Fatalf("%s: found no flag definition; the scan is broken", cmd)
			}

			doc := codeSpan.ReplaceAllString(packageDoc(t, cmd), "code")
			documented := map[string]bool{}
			for _, m := range docFlag.FindAllStringSubmatch(doc, -1) {
				documented[m[1]] = true
			}

			var missing, stale []string
			for name := range defined {
				if !documented[name] {
					missing = append(missing, name)
				}
			}
			for name := range documented {
				if !defined[name] {
					stale = append(stale, name)
				}
			}
			slices.Sort(missing)
			slices.Sort(stale)
			for _, name := range missing {
				t.Errorf("%s defines -%s, but its package doc does not list it", cmd, name)
			}
			for _, name := range stale {
				t.Errorf("%s's package doc lists -%s, which the command does not define", cmd, name)
			}
		})
	}
}

// packageDoc returns the package doc comment of the command at rel.
func packageDoc(t *testing.T, rel string) string {
	t.Helper()
	dir := filepath.FromSlash(rel)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc != nil {
			doc.WriteString(f.Doc.Text())
		}
	}
	if doc.Len() == 0 {
		t.Fatalf("%s has no package doc", rel)
	}
	return doc.String()
}
