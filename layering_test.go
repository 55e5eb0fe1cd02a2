package dbvirt_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// layers lists, for every package under internal/ and every command
// under cmd/, the internal packages its non-test files import. TestLayering
// fails when the imports differ from the table, so a new dependency
// between packages is a reviewed edit of this table. No internal package
// imports experiments, so the command rows pin what each binary links:
// only cmd/experiments reaches the paper harness.
var layers = map[string]string{
	"cmd/calibrate":   "calibration faults obs vm",
	"cmd/dbvshell":    "engine obs sql telemetry vm workload",
	"cmd/experiments": "experiments obs workload",
	"cmd/vdtune":      "core obs telemetry vm workload",
	"cmd/vdtuned":     "calibration faults obs server telemetry workload",

	"autotune":    "core engine obs telemetry vm",
	"buffer":      "storage vm",
	"calibration": "engine faults linalg memo obs optimizer storage types vm wal",
	"catalog":     "index storage types",
	"core":        "calibration engine memo obs optimizer plan sql vm",
	"engine":      "buffer catalog executor index memo obs optimizer plan sql storage types vm wal",
	"executor":    "buffer index obs optimizer plan sql storage types vm",
	"experiments": "autotune calibration core engine optimizer placement telemetry vm wal workload",
	"faults":      "",
	"index":       "storage",
	"linalg":      "",
	"memo":        "obs",
	"obs":         "",
	"optimizer":   "catalog obs plan sql storage types",
	"placement":   "core memo obs telemetry vm",
	"plan":        "catalog sql types",
	"server":      "autotune calibration core memo obs optimizer placement telemetry vm workload",
	"sql":         "types",
	"storage":     "types",
	"telemetry":   "obs",
	"types":       "",
	"vm":          "",
	"wal":         "faults obs storage",
	"workload":    "calibration engine storage types vm",
}

// TestLayering checks the import graph of the internal packages and the
// commands against layers.
func TestLayering(t *testing.T) {
	const prefix = "dbvirt/internal/"
	var dirs []string
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range entries {
			if d.IsDir() {
				dirs = append(dirs, filepath.Join(root, d.Name()))
			}
		}
	}
	seen := map[string]bool{}
	for _, dir := range dirs {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimPrefix(dir, "internal/")
		seen[name] = true
		allowed, ok := layers[name]
		if !ok {
			t.Errorf("%s is not in the layering table", dir)
			continue
		}
		var got []string
		for _, imp := range pkg.Imports { // sorted
			if strings.HasPrefix(imp, prefix) {
				got = append(got, strings.TrimPrefix(imp, prefix))
			}
		}
		if strings.Join(got, " ") != allowed {
			t.Errorf("%s imports %v; the layering table lists %q", dir, got, allowed)
		}
	}
	for name := range layers {
		if !seen[name] {
			t.Errorf("the layering table lists %s, which does not exist", name)
		}
	}
}

// surfaceAllow lists the exported names that no program references but
// a test in another package does: a fake, a checker or a reference
// implementation. A package-level name is "pkg.Name" and a method is
// "pkg.Type.Method", with pkg named as in layers. TestProgramSurface
// fails on an entry that no test outside its package uses, or that a
// program does.
var surfaceAllow = map[string]string{
	"calibration.Grid.Allocations":    "the cube of shares that grid-parity tests in core, experiments and the root package sweep",
	"faults.Disabled":                 "calibration's tests force fault-free baselines when DBVIRT_FAULTS is set",
	"faults.IsCrash":                  "wal's crash tests classify the injected crash",
	"faults.NewDisk":                  "wal's and engine's crash-recovery tests build disk injectors",
	"index.BTree.CheckInvariants":     "engine's property tests check the tree's structure",
	"index.BTree.Search":              "catalog's and engine's tests check index contents by exact key",
	"obs.ParsePrometheusText":         "server's and vdtuned's tests read /metrics",
	"optimizer.Plan.CostBreakdown":    "engine's tests check per-operator estimates",
	"optimizer.Plan.TotalCost":        "core's and executor's tests compare plan costs",
	"storage.DirectPager.PinnedCount": "catalog's and index's tests check for pin leaks",
	"storage.HeapFile.GetAt":          "the reference executor's index scans, in executor's tests",
	"storage.NewDirectPager":          "the pool-free pager of catalog, index and optimizer tests",
	"vm.MustMachine":                  "literal machine configs in the tests of eight packages",
	"vm.VM.MemBytes":                  "buffer's PoolSize test sizes a pool from a VM's RAM",
	"wal.NewFaultDevice":              "engine's crash-recovery tests inject faults under the log",
}

// fieldAllow lists the exported struct fields that no program both sets
// and reads, as "pkg.Type.Field", or every such field of a fixture type,
// as "pkg.Type". A field cannot move into a _test.go file, so a test of
// its own package counts as a user here; so does bench/, whose
// forwarders ROADMAP 1(f) retires. TestProgramSurface fails on an entry
// that programs set and read, or that no test and no bench file uses.
var fieldAllow = map[string]string{
	"catalog.IndexStats.NumEntries": "catalog's and engine's image tests check the analyzed entry count",
	"core.Result.Rounds":            "core's greedy allocation test bounds allocations per round",
	"core.WhatIfModel.NoPrepare":    "the unprepared reference path of the differential tests in core, server and experiments",
	"engine.Config.Executor":        "a bench forwarder: bench/olap.go reads it into executor.Context.Mode",
	"executor.Context.Mode":         "a bench forwarder: bench/olap.go sets it",
	"experiments.Fig3Row.Params":    "the calibrated parameters that internal/experiments/testdata/paper.json pins",
	"faults.DiskConfig":             "the config of faults.NewDisk, an allow-listed fixture",
	"obs.PromSample":                "the result of obs.ParsePrometheusText, an allow-listed fixture",
	"optimizer.NodeCost":            "the rows of optimizer.Plan.CostBreakdown, an allow-listed fixture",
}

// surfaceIfaces are the interfaces outside the module whose methods
// count as used on every type of the module that satisfies them.
var surfaceIfaces = [][2]string{
	{"fmt", "Stringer"},
	{"net/http", "ResponseWriter"},
}

// surfacePkg is one directory of the module, parsed and type-checked.
type surfacePkg struct {
	name, path    string
	files         []*ast.File // non-test files
	tests, xtests []*ast.File // in-package and external test files
	types         *types.Package
	info          *types.Info
}

// TestProgramSurface fails on an exported package-level name or exported
// method, declared in a non-test file of a package other than main, that
// no program references. The programs are the non-test files of internal/, cmd/,
// examples/ and bench/; a reference from inside the name's own
// declaration, or a method receiver's type, does not count. A method
// that a module interface, error or one of surfaceIfaces requires of its
// receiver counts as used. Test-only helpers belong in the package's
// _test.go files; fixtures that other packages' tests share belong in
// surfaceAllow. It also fails on an exported field of an exported struct
// type of such a package that no program sets, or that no program reads
// (see fieldUses); a field with a struct tag is encoding/json's to set
// and read. fieldAllow lists the exceptions.
func TestProgramSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string]*surfacePkg{} // by import path
	var order []*surfacePkg          // the packages with non-test files
	var testDirs []*surfacePkg       // every directory with tests, the root too
	std := map[string]bool{"fmt": true, "net/http": true}
	parse := func(dir string, names []string) []*ast.File {
		var fs []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); !strings.HasPrefix(p, "dbvirt/") {
					std[p] = true
				}
			}
			fs = append(fs, f)
		}
		return fs
	}
	walk := func(dir string) {
		bp, err := build.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		sp := &surfacePkg{
			name:   strings.TrimPrefix(dir, "internal/"),
			path:   path.Join("dbvirt", filepath.ToSlash(dir)),
			files:  parse(dir, bp.GoFiles),
			tests:  parse(dir, bp.TestGoFiles),
			xtests: parse(dir, bp.XTestGoFiles),
		}
		if len(sp.files) > 0 {
			pkgs[sp.path] = sp
			order = append(order, sp)
		}
		if len(sp.tests)+len(sp.xtests) > 0 {
			testDirs = append(testDirs, sp)
		}
	}
	walk(".")
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			walk(dir)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	gc := stdImporter(t, fset, std)

	// Type-check the programs, each package once, imports first.
	var check func(sp *surfacePkg) *types.Package
	imp := importerFunc(func(ipath string) (*types.Package, error) {
		if sp, ok := pkgs[ipath]; ok {
			return check(sp), nil
		}
		return gc.Import(ipath)
	})
	check = func(sp *surfacePkg) *types.Package {
		if sp.types != nil {
			return sp.types
		}
		sp.info = &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(sp.path, fset, sp.files, sp.info)
		if err != nil {
			t.Fatalf("%s: %v", sp.path, err)
		}
		sp.types = tp
		return tp
	}
	for _, sp := range order {
		check(sp)
	}

	used := map[types.Object]bool{}
	set, read := map[types.Object]bool{}, map[types.Object]bool{}
	benchUsed := map[types.Object]bool{}
	for _, sp := range order {
		for _, f := range sp.files {
			for _, decl := range f.Decls {
				markUses(decl, sp.info, used)
			}
		}
		fieldUses(sp.files, sp.info, set, read)
		if strings.HasPrefix(sp.name, "bench") {
			for _, obj := range sp.info.Uses {
				benchUsed[origin(obj)] = true
			}
		}
	}
	exempt := ifaceMethods(t, order, gc)

	// What the tests use of other packages, and every field they name.
	// An external test that uses an export_test.go name fails to resolve
	// it against the non-test package; that leaves only uses of its own
	// package unresolved, which do not count here.
	testUsed := map[types.Object]bool{}
	testFields := map[token.Pos]bool{} // fields any test names, its own package's too
	for _, sp := range testDirs {
		for i, files := range [][]*ast.File{sp.tests, sp.xtests} {
			if len(files) == 0 {
				continue
			}
			inTest := map[*token.File]bool{}
			for _, f := range files {
				inTest[fset.File(f.Pos())] = true
			}
			tpath := sp.path + "_test"
			if i == 0 {
				tpath = sp.path
				files = append(files[:len(files):len(files)], sp.files...)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			conf := types.Config{Importer: imp, Error: func(error) {}}
			conf.Check(tpath, fset, files, info)
			for id, obj := range info.Uses {
				if !inTest[fset.File(id.Pos())] {
					continue // a use in the package's own non-test files
				}
				obj = origin(obj)
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					testFields[v.Pos()] = true // an in-package test re-declares the field
				}
				if obj.Pkg() != nil && obj.Pkg().Path() != sp.path {
					testUsed[obj] = true
				}
			}
		}
	}

	seen := map[string]bool{}
	for _, sp := range order {
		if sp.types.Name() == "main" {
			continue // a command's names are not importable
		}
		scope := sp.types.Scope()
		var surface []types.Object
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				surface = append(surface, obj)
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() {
							surface = append(surface, m)
						}
					}
				}
			}
		}
		for _, obj := range surface {
			key := sp.name + "." + obj.Name()
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					key = sp.name + "." + recvName(recv.Type()) + "." + obj.Name()
				}
			}
			if _, ok := surfaceAllow[key]; ok {
				seen[key] = true
				switch {
				case used[obj]:
					t.Errorf("%s is on the allow-list but a program uses it", key)
				case !testUsed[obj]:
					t.Errorf("%s is on the allow-list but no test outside its package uses it", key)
				}
				continue
			}
			if !used[obj] && !exempt[obj] {
				t.Errorf("%s: exported %s is used by no program", fset.Position(obj.Pos()), key)
			}
		}
	}
	for key := range surfaceAllow {
		if !seen[key] {
			t.Errorf("the allow-list names %s, which is not an exported name", key)
		}
	}

	for _, sp := range order {
		if sp.types.Name() == "main" {
			continue
		}
		scope := sp.types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			tkey := sp.name + "." + tn.Name()
			_, whole := fieldAllow[tkey]
			dead, tested := 0, testUsed[tn] || benchUsed[tn]
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				if st.Tag(i) != "" {
					continue
				}
				key := tkey + "." + f.Name()
				var miss string
				switch {
				case !set[f] && !read[f]:
					miss = "no program sets or reads it"
				case !set[f]:
					miss = "no program sets it"
				case !read[f]:
					miss = "no program reads it"
				}
				if _, ok := fieldAllow[key]; ok {
					seen[key] = true
					switch {
					case miss == "":
						t.Errorf("%s is on the field allow-list but programs set and read it", key)
					case !testFields[f.Pos()] && !benchUsed[f]:
						t.Errorf("%s is on the field allow-list but no test and no bench file uses it", key)
					}
					continue
				}
				switch {
				case miss == "":
				case whole:
					dead++
					tested = tested || testFields[f.Pos()]
				default:
					t.Errorf("%s: exported field %s: %s", fset.Position(f.Pos()), key, miss)
				}
			}
			if whole {
				seen[tkey] = true
				switch {
				case dead == 0:
					t.Errorf("%s is on the field allow-list but programs set and read all its fields", tkey)
				case !tested:
					t.Errorf("%s is on the field allow-list but no test and no bench file uses it", tkey)
				}
			}
		}
	}
	for key := range fieldAllow {
		if !seen[key] {
			t.Errorf("the field allow-list names %s, which is not an exported struct type or field", key)
		}
	}
}

// fieldUses records in set and read the struct fields that files set
// and read. A composite-literal element, the left side of = or op= and
// the operand of ++ or -- set a field without reading it; &x.F, x.F[:]
// on an array and a pointer-receiver method call on x.F set and read
// it; any other selector reads it. Setting x.F.G or x.F[i] sets x.F too
// when x.F is a struct or an array rather than a pointer.
func fieldUses(files []*ast.File, info *types.Info, set, read map[types.Object]bool) {
	setOnly := map[*ast.SelectorExpr]bool{}
	field := func(e ast.Expr) (*ast.SelectorExpr, types.Object) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return sel, origin(s.Obj())
		}
		return nil, nil
	}
	isArray := func(e ast.Expr) bool {
		_, ok := info.TypeOf(e).Underlying().(*types.Array)
		return ok
	}
	var mark func(e ast.Expr, only bool)
	mark = func(e ast.Expr, only bool) {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel, f := field(x)
			if f == nil {
				return
			}
			set[f] = true
			if only {
				setOnly[sel] = true
			}
			if _, ptr := info.TypeOf(x.X).Underlying().(*types.Pointer); !ptr {
				mark(x.X, only)
			}
		case *ast.IndexExpr:
			if isArray(x.X) {
				mark(x.X, only)
			}
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						mark(l, true)
					}
				}
			case *ast.IncDecStmt:
				mark(n.X, true)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X, false)
				}
			case *ast.SliceExpr:
				if isArray(n.X) {
					mark(n.X, false)
				}
			case *ast.CallExpr:
				fun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if s := info.Selections[fun]; ok && s != nil && s.Kind() == types.MethodVal {
					recv := s.Obj().Type().(*types.Signature).Recv().Type()
					_, ptrRecv := recv.(*types.Pointer)
					_, ptrX := info.TypeOf(fun.X).Underlying().(*types.Pointer)
					if ptrRecv && !ptrX {
						mark(fun.X, false)
					}
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if f := info.Uses[kv.Key.(*ast.Ident)]; f != nil {
							set[origin(f)] = true
						}
					} else {
						set[origin(st.Field(i))] = true
					}
				}
			case *ast.SelectorExpr:
				if sel, f := field(n); f != nil && !setOnly[sel] {
					read[f] = true
				}
			}
			return true
		})
	}
}

// markUses records in used every object that decl references, except
// the objects decl itself declares and a method's receiver type.
func markUses(decl ast.Decl, info *types.Info, used map[types.Object]bool) {
	self := map[types.Object]bool{}
	var skip ast.Node
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self[info.Defs[d.Name]] = true
		if d.Recv != nil {
			skip = d.Recv
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self[info.Defs[n]] = true
				}
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if n == skip && n != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && !self[obj] {
				used[origin(obj)] = true
			}
		}
		return true
	})
}

// ifaceMethods returns the methods that an interface requires of a
// receiver that satisfies it: the module's interfaces, error and
// surfaceIfaces.
func ifaceMethods(t *testing.T, pkgs []*surfacePkg, gc types.Importer) map[types.Object]bool {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, pi := range surfaceIfaces {
		p, err := gc.Import(pi[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(pi[1]).Type().Underlying().(*types.Interface))
	}
	var named []*types.Named
	for _, sp := range pkgs {
		scope := sp.types.Scope()
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			nt, ok := tn.Type().(*types.Named)
			if !ok || nt.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := nt.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else {
				named = append(named, nt)
			}
		}
	}
	exempt := map[types.Object]bool{}
	for _, nt := range named {
		ptr := types.NewPointer(nt)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					exempt[origin(obj)] = true
				}
			}
		}
	}
	return exempt
}

// stdImporter imports the packages in std from their export data, found
// by one go list call.
func stdImporter(t *testing.T, fset *token.FileSet, std map[string]bool) types.Importer {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range std {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok {
			export[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
