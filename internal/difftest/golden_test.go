package difftest

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topkmon/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current build")

// goldenSeeds is the number of GenScenario seeds (1..goldenSeeds) pinned in
// testdata/golden.txt.
const goldenSeeds = 64

// transcriptDigest is the SHA-256 of everything a transcript holds: every
// rendered update, every final result and the closing counters, each
// section length-prefixed so records cannot shift between sections.
func transcriptDigest(tr Transcript) string {
	h := sha256.New()
	fmt.Fprintf(h, "updates %d\n", len(tr.Updates))
	for _, u := range tr.Updates {
		fmt.Fprintln(h, u)
	}
	fmt.Fprintf(h, "finals %d\n", len(tr.Finals))
	for _, f := range tr.Finals {
		fmt.Fprintln(h, f)
	}
	fmt.Fprintf(h, "points %d queries %d\n", tr.NumPoints, tr.NumQueries)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenLine replays seed's scenario through the bare engine and renders
// its digest line: the transcript hash and the engine's work counters.
func goldenLine(seed int64) (string, error) {
	s := GenScenario(seed)
	eng, err := core.NewEngine(s.Options())
	if err != nil {
		return "", err
	}
	tr, err := Replay(eng, s, ReplayConfig{})
	if err != nil {
		return "", fmt.Errorf("%v: %w", s, err)
	}
	st := eng.Stats()
	return fmt.Sprintf("seed=%d sha256=%s recomputes=%d initial=%d cells=%d heapops=%d influence=%d walked=%d skyband=%d",
		seed, transcriptDigest(tr), st.Recomputes, st.InitialComputations, st.CellsProcessed,
		st.HeapOps, st.InfluenceEvents, st.CellsWalked, st.SkybandSizeSum), nil
}

// TestGoldenDigests pins the engine's observable behaviour and its work
// counters on the first 64 scenario seeds against testdata/golden.txt.
// Unlike the differentials, which compare the engine with a reference
// built from the same scoring code, this compares against numbers a
// previous build wrote down: any change to a transcript, to a score bit or
// to the work the engine does to produce them fails here, on every kernel
// leg and architecture. A deliberate change regenerates the file with
//
//	go test ./internal/difftest -run TestGoldenDigests -update
//
// and says why it moved.
func TestGoldenDigests(t *testing.T) {
	var lines []string
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		line, err := goldenLine(seed)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden.txt has %d lines, the build produces %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("digest moved:\n  want %s\n  got  %s", wantLines[i], lines[i])
		}
	}
}
