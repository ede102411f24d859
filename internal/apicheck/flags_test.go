package apicheck

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestREADMENamesEveryFlag holds README.md to the command lines it
// documents: every flag omg-server, omg-monitor and omg-loadgen register,
// on the default flag set or a subcommand's, appears in it as -name.
func TestREADMENamesEveryFlag(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable; cannot list the module")
	}
	root := filepath.Join("..", "..")
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(t)
	l.list(t, root)
	for _, cmd := range []string{"omg-server", "omg-monitor", "omg-loadgen"} {
		c, err := l.check(modulePath + "/cmd/" + cmd)
		if err != nil {
			t.Fatal(err)
		}
		names := registeredFlags(t, c)
		if len(names) == 0 {
			t.Fatalf("%s registers no flag the scan can see", cmd)
		}
		for _, name := range names {
			named := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`)
			if !named.Match(readme) {
				t.Errorf("%s registers -%s, which README.md never names", cmd, name)
			}
		}
	}
}

// registeredFlags returns the names of the flags c's non-test code
// registers through the flag package: the first argument of flag.String
// and its kin, and the second of flag.StringVar and its kin (the first is
// the variable), whether called on the package or on a FlagSet.
func registeredFlags(t *testing.T, c *checked) []string {
	var names []string
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := c.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagDefiners[fn.Name()] {
				return true
			}
			arg := 0
			if strings.HasSuffix(fn.Name(), "Var") {
				arg = 1
			}
			name := c.info.Types[call.Args[arg]].Value
			if name == nil || name.Kind() != constant.String {
				t.Errorf("%s: %s.%s names its flag with no constant string", c.path, fn.Pkg().Name(), fn.Name())
				return true
			}
			names = append(names, constant.StringVal(name))
			return true
		})
	}
	return names
}

// flagDefiners are the flag package's functions and FlagSet methods that
// define a flag.
var flagDefiners = set(
	"Bool", "BoolVar", "BoolFunc", "Duration", "DurationVar", "Float64", "Float64Var",
	"Func", "Int", "IntVar", "Int64", "Int64Var", "String", "StringVar", "TextVar",
	"Uint", "UintVar", "Uint64", "Uint64Var", "Var",
)

// TestREADMENamesEveryRoute holds README.md to the collector's HTTP API:
// every pattern export.Collector.Handler registers on its ServeMux names a
// path README.md gives whole, so a route added without docs fails here.
func TestREADMENamesEveryRoute(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable; cannot list the module")
	}
	root := filepath.Join("..", "..")
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(t)
	l.list(t, root)
	c, err := l.check(modulePath + "/internal/export")
	if err != nil {
		t.Fatal(err)
	}
	routes := handlerRoutes(t, c)
	if len(routes) == 0 {
		t.Fatal("Collector.Handler registers no route the scan can see")
	}
	for _, route := range routes {
		path := route[strings.LastIndexByte(route, ' ')+1:]
		named := regexp.MustCompile(`(^|[^\w/.-])` + regexp.QuoteMeta(path) + `($|[^\w/-])`)
		if !named.Match(readme) {
			t.Errorf("Collector.Handler registers %q, whose path README.md never names", route)
		}
	}
}

// handlerRoutes returns the patterns c's Collector.Handler passes to
// net/http's ServeMux.Handle and HandleFunc, evaluated as constants.
func handlerRoutes(t *testing.T, c *checked) []string {
	var routes []string
	for _, f := range c.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Handler" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if recv := namedObj(c.info.TypeOf(fd.Recv.List[0].Type)); recv == nil || recv.Name() != "Collector" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := c.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" || (fn.Name() != "Handle" && fn.Name() != "HandleFunc") {
					return true
				}
				pattern := c.info.Types[call.Args[0]].Value
				if pattern == nil || pattern.Kind() != constant.String {
					t.Errorf("%s: Collector.Handler registers a route with no constant pattern", c.path)
					return true
				}
				routes = append(routes, constant.StringVal(pattern))
				return true
			})
		}
	}
	return routes
}
