package ifot_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// daemons are the commands whose flags are settable values.
var daemons = []string{"ifot-broker", "ifot-neuron", "ifot-mgmt", "ifot-bench"}

// TestSettableValuesMatchDocs checks that docs/configuration.md has one
// row per settable value and no other: each exported field of an exported
// struct type named *Options or *Config in the module's non-test code, and
// each flag the four daemons define. It logs the count.
func TestSettableValuesMatchDocs(t *testing.T) {
	code := map[string]bool{}
	for _, f := range parseSources(t) {
		for _, name := range optionFields(t, f.path, f.file) {
			code[name] = true
		}
	}
	fields := len(code)
	for _, d := range daemons {
		for _, name := range daemonFlags(t, d) {
			code[name] = true
		}
	}
	documented := documentedSettables(t)
	for _, name := range sortedKeys(code) {
		if !documented[name] {
			t.Errorf("%s is settable but has no row in docs/configuration.md", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !code[name] {
			t.Errorf("docs/configuration.md has a row for %s, which is no struct field or daemon flag", name)
		}
	}
	t.Logf("%d settable values: %d struct fields, %d daemon flags", len(code), fields, len(code)-fields)
}

// sourceFile is one parsed non-test Go file.
type sourceFile struct {
	path string
	file *ast.File
}

// parseSources parses every non-test Go file of the module outside bench/,
// the benchmark harness, which configures the stack but is not part of it.
func parseSources(t *testing.T) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var out []sourceFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		out = append(out, sourceFile{path: path, file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// optionFields names the exported fields of f's exported *Options and
// *Config struct types as package.Type.Field.
func optionFields(t *testing.T, path string, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			name := ts.Name.Name
			if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			for _, field := range st.Fields.List {
				if len(field.Names) == 0 {
					t.Errorf("%s: %s embeds a field this test cannot name", path, name)
				}
				for _, n := range field.Names {
					if n.IsExported() {
						out = append(out, f.Name.Name+"."+name+"."+n.Name)
					}
				}
			}
		}
	}
	return out
}

// flagDefiners are the flag package's functions that define a flag; each
// takes the flag's name as its first string argument.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// daemonFlags names the flags cmd/<daemon> defines as "<daemon> -<flag>".
func daemonFlags(t *testing.T, daemon string) []string {
	t.Helper()
	dir := filepath.Join("cmd", daemon)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkgName, ok := sel.X.(*ast.Ident); !ok || pkgName.Name != "flag" {
					return true
				}
				if sel.Sel.Name == "NewFlagSet" {
					t.Errorf("%s: a flag.FlagSet defines flags this test cannot attribute", fset.Position(call.Pos()))
				}
				if !flagDefiners[sel.Sel.Name] {
					return true
				}
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, daemon+" -"+name)
						return true
					}
				}
				t.Errorf("%s: flag.%s has no literal flag name", fset.Position(call.Pos()), sel.Sel.Name)
				return true
			})
		}
	}
	if len(out) == 0 {
		t.Fatalf("no flags found in %s", dir)
	}
	return out
}

// documentedSettables reads the names of docs/configuration.md's rows: one
// settable value per row, named in the first cell, with its default and
// its setters in the next two.
func documentedSettables(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("docs/configuration.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `([a-z]+\\.[A-Z][A-Za-z]*\\.[A-Z][A-Za-z0-9]*|ifot-[a-z]+ -[a-z0-9-]+)` \\|(.*)\\|(.*)\\|$")
	names := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if names[m[1]] {
			t.Errorf("docs/configuration.md lists %s twice", m[1])
		}
		if strings.TrimSpace(m[2]) == "" || strings.TrimSpace(m[3]) == "" {
			t.Errorf("docs/configuration.md: the row for %s needs a default and a setter", m[1])
		}
		names[m[1]] = true
	}
	if len(names) == 0 {
		t.Fatal("no rows found in docs/configuration.md")
	}
	return names
}
