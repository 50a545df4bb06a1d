package ifot_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestEventKindsMatchDocs checks that the kinds of structured event the
// module's non-test code emits, through EventLog.Eventf or a
// telemetry.Event literal, are exactly those docs/observability.md lists
// in its event table. A kind built from a variable is expanded from the
// code: a local assigned string literals takes each of them, and a
// parameter of a named string type takes each constant of that type.
func TestEventKindsMatchDocs(t *testing.T) {
	files := parseSources(t)
	consts := typedStringConsts(files)
	emitted := map[string]bool{}
	for _, sf := range files {
		for _, decl := range sf.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			pkg := filepath.Dir(sf.path)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var kind ast.Expr
				switch x := n.(type) {
				case *ast.CallExpr:
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Eventf" && len(x.Args) >= 3 {
						kind = x.Args[2]
					}
				case *ast.CompositeLit:
					kind = eventLiteralKind(x)
				}
				if kind == nil {
					return true
				}
				kinds, passThrough, ok := resolveKind(kind, fn, consts[pkg])
				switch {
				case passThrough:
				case !ok || len(kinds) == 0:
					t.Errorf("%s: %s: cannot tell which event kinds %s names", sf.path, fn.Name.Name, types.ExprString(kind))
				default:
					for _, k := range kinds {
						emitted[k] = true
					}
				}
				return true
			})
		}
	}
	documented := documentedEventKinds(t)
	for _, k := range sortedKeys(emitted) {
		if !documented[k] {
			t.Errorf("event kind %s is emitted but not in the docs/observability.md event table", k)
		}
	}
	for _, k := range sortedKeys(documented) {
		if !emitted[k] {
			t.Errorf("event kind %s is in the docs/observability.md event table but nothing emits it", k)
		}
	}
	t.Logf("%d event kinds", len(emitted))
}

// eventLiteralKind returns the Kind of a telemetry.Event literal, or nil.
func eventLiteralKind(lit *ast.CompositeLit) ast.Expr {
	var name string
	switch typ := lit.Type.(type) {
	case *ast.Ident:
		name = typ.Name
	case *ast.SelectorExpr:
		if pkg, ok := typ.X.(*ast.Ident); ok && pkg.Name == "telemetry" {
			name = typ.Sel.Name
		}
	}
	if name != "Event" {
		return nil
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Kind" {
				return kv.Value
			}
		}
	}
	return nil
}

// resolveKind lists the kinds expr can name inside fn. passThrough
// reports a plain string parameter: fn forwards its caller's kind, and
// the callers are checked where they call it.
func resolveKind(expr ast.Expr, fn *ast.FuncDecl, consts map[string][]string) (kinds []string, passThrough, ok bool) {
	switch x := expr.(type) {
	case *ast.BasicLit:
		if x.Kind != token.STRING {
			return nil, false, false
		}
		s, err := strconv.Unquote(x.Value)
		return []string{s}, false, err == nil
	case *ast.CallExpr: // a conversion such as string(kind)
		if id, isIdent := x.Fun.(*ast.Ident); isIdent && id.Name == "string" && len(x.Args) == 1 {
			return resolveKind(x.Args[0], fn, consts)
		}
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return nil, false, false
		}
		left, lp, lok := resolveKind(x.X, fn, consts)
		right, rp, rok := resolveKind(x.Y, fn, consts)
		if !lok || !rok || lp || rp {
			return nil, false, false
		}
		for _, l := range left {
			for _, r := range right {
				kinds = append(kinds, l+r)
			}
		}
		return kinds, false, true
	case *ast.Ident:
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if name.Name != x.Name {
					continue
				}
				typ, isIdent := field.Type.(*ast.Ident)
				if !isIdent {
					return nil, false, false
				}
				if typ.Name == "string" {
					return nil, true, true
				}
				return consts[typ.Name], false, len(consts[typ.Name]) > 0
			}
		}
		// A local: every string literal assigned to it, and nothing else.
		bad := false
		assigned := func(rhs ast.Expr) {
			lit, isLit := rhs.(*ast.BasicLit)
			if !isLit || lit.Kind != token.STRING {
				bad = true
				return
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				bad = true
				return
			}
			kinds = append(kinds, s)
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			var lhs, rhs []ast.Expr
			switch st := n.(type) {
			case *ast.AssignStmt:
				lhs, rhs = st.Lhs, st.Rhs
			case *ast.ValueSpec:
				for _, id := range st.Names {
					lhs = append(lhs, id)
				}
				rhs = st.Values
			default:
				return true
			}
			for i, l := range lhs {
				if id, isIdent := l.(*ast.Ident); isIdent && id.Name == x.Name {
					if len(rhs) != len(lhs) {
						bad = true
						continue
					}
					assigned(rhs[i])
				}
			}
			return true
		})
		ok = !bad && len(kinds) > 0
		return kinds, false, ok
	}
	return nil, false, false
}

// typedStringConsts maps each package directory to its string constants
// declared with an explicit named type, by type name.
func typedStringConsts(files []sourceFile) map[string]map[string][]string {
	out := map[string]map[string][]string{}
	for _, sf := range files {
		pkg := filepath.Dir(sf.path)
		for _, decl := range sf.file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				typ, ok := vs.Type.(*ast.Ident)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					lit, ok := v.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						continue
					}
					if out[pkg] == nil {
						out[pkg] = map[string][]string{}
					}
					out[pkg][typ.Name] = append(out[pkg][typ.Name], s)
				}
			}
		}
	}
	return out
}

// documentedEventKinds reads the kinds in the first cell of each row of
// docs/observability.md's event table, the one headed "| kind | emitted when |".
func documentedEventKinds(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`([a-z_]+)`")
	kinds := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "| kind | emitted when |") {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			if kinds[m[1]] {
				t.Errorf("docs/observability.md lists event kind %s twice", m[1])
			}
			kinds[m[1]] = true
		}
	}
	if len(kinds) == 0 {
		t.Fatal("no event table found in docs/observability.md")
	}
	return kinds
}
