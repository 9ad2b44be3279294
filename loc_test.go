package hybridwh

import (
	"bufio"
	"bytes"
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// locBudgetFile holds the line budgets TestLineBudgets enforces.
const locBudgetFile = "loc_budget.txt"

// TestLineBudgets is the line-budget ratchet: each guarded package's
// non-test Go lines, counted the way `make loc` counts them (the files the
// build constraints select, testdata never), stay within the budget
// committed in loc_budget.txt, so code a change deletes stays deleted. The
// guarded packages are the engine's core layers, every package under
// internal/lint, bench/hwperf, the root package and any other directory
// loc_budget.txt names; each needs a budget, and each row must name a
// directory that holds a Go package, so a stale or mistyped row fails
// instead of guarding nothing.
func TestLineBudgets(t *testing.T) {
	budgets := readLineBudgets(t)
	dirs := []string{".", "bench/hwperf", "internal/batch", "internal/core", "internal/expr", "internal/format", "internal/netsim", "internal/relop"}
	err := filepath.WalkDir("internal/lint", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		dirs = append(dirs, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var extra []string // budgeted directories outside the guarded set
	for dir := range budgets {
		if !slices.Contains(dirs, dir) {
			extra = append(extra, dir)
		}
	}
	slices.Sort(extra)
	dirs = append(dirs, extra...)
	for _, dir := range dirs {
		n, ok := goLines(t, dir)
		budget, listed := budgets[dir]
		switch {
		case !ok && listed:
			t.Errorf("%s: budgeted in %s, but the directory holds no Go package: delete the row or fix its path", dir, locBudgetFile)
		case !ok:
			// a directory without Go files is no package
		case !listed:
			t.Errorf("%s: %d non-test Go lines and no budget: add the line %q to %s", dir, n, strconv.Itoa(n)+" "+dir, locBudgetFile)
		case n > budget:
			t.Errorf("%s: %d non-test Go lines, over its budget of %d in %s: delete code, or raise the budget there and say why in CHANGES.md", dir, n, budget, locBudgetFile)
		case n < budget:
			t.Logf("%s: %d non-test Go lines, under its budget of %d: lower it in %s", dir, n, budget, locBudgetFile)
		}
	}
}

// readLineBudgets parses loc_budget.txt: one "<lines> <dir>" per line,
// blank lines and #-comments skipped.
func readLineBudgets(t *testing.T) map[string]int {
	t.Helper()
	f, err := os.Open(locBudgetFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	budgets := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.Atoi(fields[0])
		if len(fields) != 2 || err != nil {
			t.Fatalf("%s: malformed line %q, want \"<lines> <dir>\"", locBudgetFile, line)
		}
		budgets[fields[1]] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return budgets
}

// goLines counts the lines of dir's non-test Go files as the build
// constraints select them; ok is false when dir holds no Go package.
func goLines(t *testing.T, dir string) (n int, ok bool) {
	t.Helper()
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		return 0, false
	}
	pkg, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return 0, false
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range pkg.GoFiles {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		n += bytes.Count(data, []byte("\n"))
	}
	return n, true
}
