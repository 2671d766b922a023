package analysis

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite linebudget.txt from the current tree")

// budgetFile holds every package's committed line count.
const budgetFile = "linebudget.txt"

// packageLines counts the non-test Go lines of each package directory
// (module-relative, "." for the root), outside the benchmark module and
// testdata.
func packageLines(t *testing.T) map[string]int {
	t.Helper()
	lines := map[string]int{}
	for _, rel := range goFiles(t) {
		if strings.HasSuffix(rel, "_test.go") || strings.HasPrefix(rel, "bench/") ||
			strings.Contains("/"+rel, "/testdata/") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(moduleRoot, rel))
		if err != nil {
			t.Fatal(err)
		}
		lines[path.Dir(rel)] += bytes.Count(src, []byte("\n"))
	}
	return lines
}

// formatBudget renders the counts as budgetFile holds them: one
// "<dir> <lines>" line per package in path order, then the total.
func formatBudget(lines map[string]int) string {
	dirs := make([]string, 0, len(lines))
	total := 0
	for dir, n := range lines {
		dirs = append(dirs, dir)
		total += n
	}
	sort.Strings(dirs)
	var sb strings.Builder
	sb.WriteString("# Non-test Go lines per package, outside bench/ and testdata.\n")
	sb.WriteString("# Regenerate with: go test ./internal/analysis -run TestLineBudget -update\n")
	for _, dir := range dirs {
		fmt.Fprintf(&sb, "%s %d\n", dir, lines[dir])
	}
	fmt.Fprintf(&sb, "total %d\n", total)
	return sb.String()
}

// TestLineBudget compares every package's non-test Go line count with
// linebudget.txt. A package that grew, shrank, appeared or disappeared
// fails until the file is regenerated with -update, so every change in
// size shows in the diff and is a decision rather than drift.
func TestLineBudget(t *testing.T) {
	got := formatBudget(packageLines(t))
	if *update {
		if err := os.WriteFile(budgetFile, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(budgetFile)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	// Report each line the two files do not share: a package whose count
	// moved shows once from each side.
	report := func(from, other, side string) {
		in := map[string]bool{}
		for _, line := range strings.Split(other, "\n") {
			in[line] = true
		}
		for _, line := range strings.Split(from, "\n") {
			if !in[line] {
				t.Errorf("%s: %s", side, line)
			}
		}
	}
	report(string(want), got, budgetFile)
	report(got, string(want), "tree")
	t.Errorf("line counts differ from %s; if the change in size is intended, rerun with -update and say why", budgetFile)
}
