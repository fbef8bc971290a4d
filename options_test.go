package hmmm

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

const modulePath = "github.com/videodb/hmmm"

// optionTypes are the option structs on the build and serving path whose
// every field needs a production caller.
var optionTypes = []struct{ pkg, name string }{
	{"internal/retrieval", "Options"},
	{"internal/coord", "Options"},
	{"internal/shard", "GroupOptions"},
	{"internal/server", "Config"},
	{"internal/fed", "Options"},
	{"internal/hmmm", "BuildOptions"},
	{"internal/dataset", "Config"},
	{"internal/live", "Config"},
	{"internal/synthvideo", "ArchiveConfig"},
}

// optionSeams are the fields only tests set: each lets a test substitute
// a fake or shorten a clock.
var optionSeams = map[string]string{
	"retrieval.Options.Tracer": "faultinject.SlowTracer slows the traversal",
	"server.Config.FS":         "tests inject filesystem failures",
	"server.Config.Logf":       "tests capture operational warnings",
	"coord.Options.RetryBase":  "e2e, chaos and server tests shorten the retry clock",
	"coord.Options.RetryMax":   "e2e, chaos and server tests shorten the retry clock",
	"coord.Options.HedgeMax":   "e2e, chaos and server tests shorten the hedge clock",
	"coord.Options.EjectBackoff": "e2e, chaos and server tests shorten the " +
		"re-probe clock",
}

// TestOptionsHaveCallers type-checks every non-test package of the module
// (examples/ excluded) from source and fails on an option field that no
// package other than its own sets, by a composite-literal key, an
// assignment or its address, unless optionSeams lists it. It also fails
// on a seam entry that has gained a production setter.
func TestOptionsHaveCallers(t *testing.T) {
	ld := loadModule(t)

	// setBy maps each field set anywhere to the packages that set it.
	setBy := map[*types.Var]map[*types.Package]bool{}
	for pkg, files := range ld.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				for _, id := range setIdents(n) {
					if v, ok := ld.info.Uses[id].(*types.Var); ok && v.IsField() {
						if setBy[v] == nil {
							setBy[v] = map[*types.Package]bool{}
						}
						setBy[v][pkg] = true
					}
				}
				return true
			})
		}
	}

	var unset, stale []string
	seen := map[string]bool{}
	for _, ot := range optionTypes {
		pkg := ld.pkgs[importPath(ot.pkg)]
		if pkg == nil {
			t.Fatalf("package %s not loaded", ot.pkg)
		}
		obj := pkg.Scope().Lookup(ot.name)
		if obj == nil {
			t.Fatalf("%s.%s not found", ot.pkg, ot.name)
		}
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			name := pkg.Name() + "." + ot.name + "." + f.Name()
			seen[name] = true
			outside := false
			for p := range setBy[f] {
				outside = outside || p != pkg
			}
			_, seam := optionSeams[name]
			switch {
			case !outside && !seam:
				unset = append(unset, name)
			case outside && seam:
				stale = append(stale, name)
			}
		}
	}
	for name := range optionSeams {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	slices.Sort(unset)
	slices.Sort(stale)
	for _, name := range unset {
		t.Errorf("%s: no non-test file of another package sets it; delete it or list it in optionSeams", name)
	}
	for _, name := range stale {
		t.Errorf("%s: optionSeams lists it, but it is not an option field only tests set", name)
	}
}

var (
	moduleOnce sync.Once
	moduleLd   *srcLoader
	moduleErr  error
)

// loadModule type-checks every non-test package of the module
// (examples/ excluded) from source, once per test binary.
func loadModule(t *testing.T) *srcLoader {
	t.Helper()
	moduleOnce.Do(func() {
		root, err := os.Getwd()
		if err != nil {
			moduleErr = err
			return
		}
		ld := &srcLoader{
			fset:  token.NewFileSet(),
			root:  root,
			std:   importer.Default(),
			pkgs:  map[string]*types.Package{},
			files: map[*types.Package][]*ast.File{},
			info: &types.Info{
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
				Types: map[ast.Expr]types.TypeAndValue{},
			},
		}
		moduleErr = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			if name := d.Name(); rel == "examples" || name == "testdata" || (rel != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			_, err = ld.Import(importPath(rel))
			if errors.As(err, new(*build.NoGoError)) {
				return nil
			}
			return err
		})
		moduleLd = ld
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleLd
}

// setIdents returns the field identifiers node n writes: the keys of a
// struct literal, the selectors an assignment or ++/-- writes, and a
// selector whose address is taken (flag.IntVar(&cfg.F, ...)).
func setIdents(n ast.Node) []*ast.Ident {
	var out []*ast.Ident
	sel := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			out = append(out, s.Sel)
		}
	}
	switch n := n.(type) {
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					out = append(out, id)
				}
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			sel(lhs)
		}
	case *ast.IncDecStmt:
		sel(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			sel(n.X)
		}
	}
	return out
}

func importPath(rel string) string {
	if rel == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(rel)
}

// srcLoader type-checks module packages from their non-test source and
// hands the standard library to the default importer.
type srcLoader struct {
	fset  *token.FileSet
	root  string
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[*types.Package][]*ast.File
	info  *types.Info
}

func (ld *srcLoader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return ld.std.Import(path)
	}
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, files, err := ld.check(path)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = pkg
	ld.files[pkg] = files
	return pkg, nil
}

// check parses and type-checks the non-test files of the module package
// at path, recording into ld.info.
func (ld *srcLoader) check(path string) (*types.Package, []*ast.File, error) {
	dir := filepath.Join(ld.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, ld.info)
	return pkg, files, err
}

var (
	examplesOnce  sync.Once
	examplesFiles map[*types.Package][]*ast.File
	examplesErr   error
)

// loadExamples type-checks every program under examples/ against the
// module loadModule returned, once per test binary. Their files stay out
// of ld.files, so TestOptionsHaveCallers does not see them.
func loadExamples(t *testing.T, ld *srcLoader) map[*types.Package][]*ast.File {
	t.Helper()
	examplesOnce.Do(func() {
		examplesFiles = map[*types.Package][]*ast.File{}
		dirs, err := os.ReadDir(filepath.Join(ld.root, "examples"))
		if err != nil {
			examplesErr = err
			return
		}
		for _, d := range dirs {
			if !d.IsDir() {
				continue
			}
			pkg, files, err := ld.check(importPath("examples/" + d.Name()))
			if err != nil {
				examplesErr = err
				return
			}
			examplesFiles[pkg] = files
		}
	})
	if examplesErr != nil {
		t.Fatal(examplesErr)
	}
	return examplesFiles
}
