package l2fuzz_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surfaceAllowlist names the exports TestEverySurfaceHasACaller lets
// stand without a non-test caller or setter, each with its reason. An
// entry that no longer matches a flagged export fails the test too.
var surfaceAllowlist = map[string]string{
	"pool.Copy":                          "internal/bt/pool goes with the benchmark rework (ROADMAP item 1)",
	"harness.TableVIConfig.RobustBudget": "test hook: the Table VI paper-shape test (golden recorded at 50,000) and BenchmarkTableVI shorten the robust rows",
	"metrics.Sniffer.RejectionsByCode":   "surfaced or deleted with the layer counters (ROADMAP item 6)",
	"device.Device.HandlerCoverage":      "surfaced or deleted with the layer counters (ROADMAP item 6)",
	"device.Device.StatesVisited":        "the state-coverage ground truth (ROADMAP item 8)",
	"rfcomm.Mux.StatesVisited":           "the state-coverage ground truth (ROADMAP item 8)",
	"device.Device.Controller":           "test hook: detect and fuzzer tests toggle connectability and re-register the controller",
	"device.Config.ClassOfDevice":        "device identity, decoded from spec JSON and set by the catalog inside its package",
	"fleet.ProcExecutor.KillOne":         "test hook: crash-recovery tests kill a worker mid-farm",
	"telemetry.Journal.SetClock":         "test hook: journal tests pin the record clock",
	"fleet.ProcConfig.Command":           "test hook: tests run the test binary as the worker",
}

// implicitMethods are method names the standard library calls through
// its interfaces (fmt, errors, encoding/json, sort, io, net/http).
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestEverySurfaceHasACaller keeps the program surface from regrowing
// test-only API. It type-checks the non-test files of this module and of
// perfbench with go/types and fails on an exported function or method
// under internal/ that no non-test reference resolves to, and on an
// exported field of a *Config or *Options struct that no non-test code
// outside the declaring package sets (by composite-literal key, by
// assignment or by taking its address). A method also counts as called
// where a non-test call resolves to an interface method its receiver
// type implements. Objects are matched, not names, so a dead export
// sharing a live one's name fails too. It runs the go tool, and takes
// about 0.6 s once `go build ./...` has warmed the build cache.
func TestEverySurfaceHasACaller(t *testing.T) {
	pkgs, err := typeCheck(".", "perfbench")
	if err != nil {
		t.Fatal(err)
	}

	used := map[*types.Func]bool{}
	ifaceMethods := map[*types.Func]bool{} // the interface methods non-test code calls
	setOutside := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, obj := range p.uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
				if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceMethods[fn] = true
				}
			}
		}
		set := func(e ast.Expr) {
			var id *ast.Ident
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			}
			if v, ok := p.uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.types {
				setOutside[v.Origin()] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					set(n.Key)
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						if _, ok := l.(*ast.SelectorExpr); ok {
							set(l)
						}
					}
				case *ast.UnaryExpr:
					if _, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
						set(n.X)
					}
				}
				return true
			})
		}
	}
	called := func(m *types.Func) bool {
		if used[m] || implicitMethods[m.Name()] {
			return true
		}
		recv := m.Signature().Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for im := range ifaceMethods {
			iface := im.Signature().Recv().Type().Underlying().(*types.Interface)
			if im.Name() == m.Name() && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
		return false
	}

	flagged := map[string]bool{}
	flag := func(key, why string) {
		flagged[key] = true
		if _, ok := surfaceAllowlist[key]; !ok {
			t.Errorf("%s: %s", key, why)
		}
	}
	for _, p := range pkgs {
		if p.callerOnly {
			continue
		}
		internal := strings.HasPrefix(p.types.Path(), "l2fuzz/internal/")
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			key := p.types.Name() + "." + name
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if internal && obj.Exported() && !used[obj] {
					flag(key, "exported, but no non-test code calls it")
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue // an alias: its methods and fields are its target's
				}
				for m := range named.Methods() {
					if internal && m.Exported() && !called(m) {
						flag(key+"."+m.Name(), "exported, but no non-test code calls it")
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
					continue
				}
				for fd := range st.Fields() {
					if fd.Exported() && !fd.Embedded() && !setOutside[fd] {
						flag(key+"."+fd.Name(), "no non-test code outside its package sets it")
					}
				}
			}
		}
	}
	for key := range surfaceAllowlist {
		if !flagged[key] {
			t.Errorf("%s: allowlisted, but it now has a caller or is gone; drop the entry", key)
		}
	}
}

// packetPath is the simulated stack, the layers a job's packets cross
// in the rig, and the engines that drive them. Each reports its traffic
// in its own results, and the farm reads a job's tallies once, where
// the job's result is made; so none of them depends on telemetry.
var packetPath = []string{
	"./internal/bt/...", "./internal/core", "./internal/campaign", "./internal/testbed", "./internal/metrics",
	"./internal/fuzzers/...", "./internal/sdpfuzz", "./internal/smfuzz", "./internal/rfcommfuzz",
}

// TestPacketPathImportsNoTelemetry fails when a packet-path package, or
// any package it depends on, imports internal/telemetry.
func TestPacketPathImportsNoTelemetry(t *testing.T) {
	const telemetry = "l2fuzz/internal/telemetry"
	cmd := exec.Command("go", append([]string{"list", "-deps", "-f", "{{.ImportPath}} {{join .Imports \" \"}}"}, packetPath...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		listed = append(listed, f[0])
		for _, imp := range f[1:] {
			if imp == telemetry {
				t.Errorf("%s imports %s; the packet path reports traffic in its results instead", f[0], telemetry)
			}
		}
	}
	for _, p := range packetPath {
		path := "l2fuzz/" + strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/...")
		if !slices.ContainsFunc(listed, func(s string) bool { return s == path || strings.HasPrefix(s, path+"/") }) {
			t.Errorf("%s matched no package", p)
		}
	}
}

// checkedPackage is one module package, type-checked from its non-test
// files.
type checkedPackage struct {
	types      *types.Package
	files      []*ast.File
	uses       map[*ast.Ident]types.Object
	callerOnly bool // a perfbench package: its uses count, its exports are not checked
}

// typeCheck type-checks the non-test files of every package of the
// modules in dirs, and of their module dependencies, in dependency order
// into one go/types universe. Module packages import each other as
// checked from source and the standard library comes from the build
// cache's export data, so every package sees the same objects and
// types.Implements holds across packages.
func typeCheck(dirs ...string) ([]*checkedPackage, error) {
	fset := token.NewFileSet()
	exports := map[string]string{} // standard-library import path → export data file
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []*checkedPackage
	for _, dir := range dirs {
		cmd := exec.Command("go", "-C", dir, "list", "-export", "-deps",
			"-f", "{{.ImportPath}}\t{{.Export}}\t{{.Dir}}\t{{.Standard}}\t{{join .GoFiles \" \"}}", "./...")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.Split(line, "\t")
			if len(f) != 5 {
				return nil, fmt.Errorf("go list in %s: malformed line %q", dir, line)
			}
			path, export, pkgDir, std := f[0], f[1], f[2], f[3] == "true"
			if std {
				exports[path] = export
				continue
			}
			if checked[path] != nil {
				continue
			}
			p := &checkedPackage{uses: map[*ast.Ident]types.Object{}, callerOnly: dir != "."}
			for _, name := range strings.Fields(f[4]) {
				file, err := parser.ParseFile(fset, filepath.Join(pkgDir, name), nil, 0)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, file)
			}
			if p.types, err = conf.Check(path, fset, p.files, &types.Info{Uses: p.uses}); err != nil {
				return nil, fmt.Errorf("type-checking %s: %v", path, err)
			}
			checked[path] = p.types
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
