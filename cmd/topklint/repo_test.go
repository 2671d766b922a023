package main

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestRepositoryClean runs the linter over this module the way CI's
// topklint job does: the analyzer suite through `go vet -vettool`, then
// the hot-path escape allowlist check. Any finding or allowlist drift
// fails the test. Escape analysis differs across architectures and the
// committed allowlist is kept against amd64, so the escapes leg runs on
// amd64 only, as in CI.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lints the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := linter(t)
	t.Run("vet", func(t *testing.T) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil || len(out) > 0 {
			t.Fatalf("go vet -vettool=topklint ./...: %v\n%s", err, out)
		}
	})
	t.Run("escapes", func(t *testing.T) {
		if runtime.GOARCH != "amd64" {
			t.Skipf("the escape allowlist is kept against amd64, not %s", runtime.GOARCH)
		}
		cmd := exec.Command(bin, "escapes")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("topklint escapes: %v\n%s", err, out)
		}
	})
}
