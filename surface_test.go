package l2fuzz_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surfaceAllowlist names the exports TestEverySurfaceHasACaller lets
// stand without a non-test caller or setter, each with its reason. An
// entry that no longer matches a flagged export fails the test too.
var surfaceAllowlist = map[string]string{
	"pool.Copy":                              "internal/bt/pool goes with the benchmark rework (ROADMAP item 1)",
	"harness.DefaultFigureConfig":            "internal/harness is retired whole (ROADMAP item 4)",
	"harness.DefaultTableVIIConfig":          "internal/harness is retired whole (ROADMAP item 4)",
	"harness.FigureConfig.CoveragePackets":   "internal/harness is retired whole (ROADMAP item 4)",
	"harness.TableVIConfig.RobustBudget":     "internal/harness is retired whole (ROADMAP item 4)",
	"harness.TableVIConfig.VulnerableBudget": "internal/harness is retired whole (ROADMAP item 4)",
	"metrics.Sniffer.RejectionsByCode":       "surfaced or deleted with the layer counters (ROADMAP item 6)",
	"device.Device.HandlerCoverage":          "surfaced or deleted with the layer counters (ROADMAP item 6)",
	"fleet.ProcExecutor.KillOne":             "test hook: crash-recovery tests kill a worker mid-farm",
	"telemetry.Journal.SetClock":             "test hook: journal tests pin the record clock",
	"fleet.ProcConfig.Command":               "test hook: tests run the test binary as the worker",
}

// implicitMethods are method names the standard library calls through
// its interfaces (fmt, errors, encoding/json, sort, io, net/http).
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestEverySurfaceHasACaller keeps the program surface from regrowing
// test-only API. Over every non-test Go file of this module and of
// perfbench it fails on an exported function or method under internal/
// whose name no non-test file references, and on an exported field of a
// *Config or *Options struct that no non-test file outside the
// declaring package sets (by composite-literal key, by assignment or by
// taking its address). Matching is by name, so a dead export sharing a
// live one's name slips through; a false failure cannot.
func TestEverySurfaceHasACaller(t *testing.T) {
	type decl struct{ key, name, dir string }
	var funcs, fields []decl
	used := map[string]bool{}      // identifier names referenced anywhere
	setIn := map[string][]string{} // field name → directories setting it
	sep := string(filepath.Separator)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir, pkg := filepath.Dir(path), f.Name.Name
		ours := !strings.HasPrefix(path, "perfbench"+sep)
		declared := map[*ast.Ident]bool{} // function names, which are not uses
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				used[n.Name] = used[n.Name] || !declared[n]
			case *ast.FuncDecl:
				declared[n.Name] = true
				name := n.Name.Name
				if !ours || !ast.IsExported(name) || !strings.HasPrefix(path, "internal"+sep) {
					break
				}
				if n.Recv == nil {
					funcs = append(funcs, decl{pkg + "." + name, name, dir})
				} else if !implicitMethods[name] {
					funcs = append(funcs, decl{pkg + "." + recvType(n.Recv.List[0].Type) + "." + name, name, dir})
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ours || !ok || !strings.HasSuffix(n.Name.Name, "Config") && !strings.HasSuffix(n.Name.Name, "Options") {
					break
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							fields = append(fields, decl{pkg + "." + n.Name.Name + "." + id.Name, id.Name, dir})
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					setIn[id.Name] = append(setIn[id.Name], dir)
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if s, ok := l.(*ast.SelectorExpr); ok {
						setIn[s.Sel.Name] = append(setIn[s.Sel.Name], dir)
					}
				}
			case *ast.UnaryExpr:
				if s, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					setIn[s.Sel.Name] = append(setIn[s.Sel.Name], dir)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	flag := func(key, why string) {
		flagged[key] = true
		if _, ok := surfaceAllowlist[key]; !ok {
			t.Errorf("%s: %s", key, why)
		}
	}
	for _, fn := range funcs {
		if !used[fn.name] {
			flag(fn.key, "exported, but no non-test file calls it")
		}
	}
	for _, fd := range fields {
		if !slices.ContainsFunc(setIn[fd.name], func(dir string) bool { return dir != fd.dir }) {
			flag(fd.key, "no non-test file outside its package sets it")
		}
	}
	for key := range surfaceAllowlist {
		if !flagged[key] {
			t.Errorf("%s: allowlisted, but it now has a caller or is gone; drop the entry", key)
		}
	}
}

// recvType names a method receiver's base type.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
