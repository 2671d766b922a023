package analysis

import (
	"bytes"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot is the repository root, relative to this package's directory.
const moduleRoot = "../.."

// allowPolicy is the one list of the //topk:allow exemptions the tree may
// not carry, each barred from every .go file under the named
// module-relative directories. The analyzers' fixtures under testdata
// exercise the exemptions themselves and are not checked.
var allowPolicy = []struct {
	rule  string
	under []string
}{
	// The engine's hot path holds no Go map at all: no mapop exemption
	// in the engine or the grid.
	{rule: "mapop", under: []string{"internal/core", "internal/grid"}},
	// Lock order is declared with //topk:lockrank and never waived in
	// production code.
	{rule: "locks", under: []string{"internal", "pkg", "cmd"}},
}

// goFiles returns the module-relative paths of the repository's .go files,
// skipping hidden directories (version control, build caches).
func goFiles(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != moduleRoot && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(moduleRoot, path)
			if err != nil {
				return err
			}
			out = append(out, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no .go files found under the repository root")
	}
	return out
}

// TestGofmt formats every .go file of the repository through go/format,
// as gofmt does, and fails on any file whose formatting differs.
func TestGofmt(t *testing.T) {
	for _, rel := range goFiles(t) {
		src, err := os.ReadFile(filepath.Join(moduleRoot, rel))
		if err != nil {
			t.Fatal(err)
		}
		got, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", rel, err)
			continue
		}
		if !bytes.Equal(got, src) {
			t.Errorf("%s is not gofmt-formatted (run gofmt -w %s)", rel, rel)
		}
	}
}

// TestAllowDirectivePolicy enforces allowPolicy: no //topk:allow comment
// naming a barred rule in any .go file under its directories.
func TestAllowDirectivePolicy(t *testing.T) {
	fset := token.NewFileSet()
	for _, rel := range goFiles(t) {
		if strings.Contains("/"+rel, "/testdata/") {
			continue
		}
		var barred []string
		for _, p := range allowPolicy {
			for _, dir := range p.under {
				if strings.HasPrefix(rel, dir+"/") {
					barred = append(barred, p.rule)
					break
				}
			}
		}
		if len(barred) == 0 {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(moduleRoot, rel), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, rest := splitDirective(c.Text)
				if verb != "allow" {
					continue
				}
				rule, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				for _, b := range barred {
					if rule == b {
						t.Errorf("%s:%d: %s exemption %q is barred here", rel, fset.Position(c.Pos()).Line, rule, c.Text)
					}
				}
			}
		}
	}
}

// TestBenchModuleVets runs go vet over the benchmark module, bench/, which
// is a module of its own that go test ./... never builds, and fails on any
// output. bench/layers imports internal/shard, internal/pipeline and
// internal/recovery, so a change to a signature it uses fails here rather
// than only when the benchmark next runs.
func TestBenchModuleVets(t *testing.T) {
	cmd := exec.Command("go", "vet", "-C", "bench", "./...")
	cmd.Dir = moduleRoot
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	out, err := cmd.CombinedOutput()
	if err != nil || len(out) > 0 {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
