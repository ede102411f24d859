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
