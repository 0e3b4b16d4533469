package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden expect.txt files")

// runFixture loads one testdata directory as a package and runs a single
// pass over it directly (bypassing AppliesTo, which keys on real import
// paths), honoring //mobidxlint:allow annotations the way RunPasses
// does. Diagnostics come back as golden-comparable lines with the file
// path reduced to its base name.
func runFixture(t *testing.T, pass *Pass, dir string) []string {
	t.Helper()
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	allow := buildAllowSet(pkg)
	var lines []string
	for _, d := range pass.Run(pkg) {
		if allow[allowKey{d.File, d.Line, d.Pass}] || allow[allowKey{d.File, d.Line, "all"}] {
			continue
		}
		d.File = filepath.Base(d.File)
		lines = append(lines, d.String())
	}
	return lines
}

// TestGolden checks every pass against a failing and a passing fixture:
// the bad directory must reproduce its expect.txt line for line, and the
// good directory must produce no findings at all. Run with -update to
// regenerate the goldens after changing a pass or a fixture.
func TestGolden(t *testing.T) {
	for _, pass := range All() {
		pass := pass
		t.Run(pass.Name+"/bad", func(t *testing.T) {
			dir := filepath.Join("testdata", pass.Name, "bad")
			got := runFixture(t, pass, dir)
			if len(got) == 0 {
				t.Fatalf("%s produced no findings on its bad fixture", pass.Name)
			}
			goldenPath := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if g, w := strings.Join(got, "\n")+"\n", string(want); g != w {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", g, w)
			}
		})
		t.Run(pass.Name+"/good", func(t *testing.T) {
			got := runFixture(t, pass, filepath.Join("testdata", pass.Name, "good"))
			if len(got) != 0 {
				t.Errorf("%s flagged the clean fixture:\n%s", pass.Name, strings.Join(got, "\n"))
			}
		})
	}
}

// TestPageBufReleaseSeesLogChunk checks that the pass pairs the pager's
// own frame-chunk pool (getLogChunk/Release) like GetPageBuf: the deferred
// release is accepted, the early error return that skips it is reported.
func TestPageBufReleaseSeesLogChunk(t *testing.T) {
	checkPageBufFixture(t, "chunk")
}

// TestPageBufReleaseSeesScratch checks that the pass pairs core's pooled
// query scratch (GetScratch/Release) like GetPageBuf, and that calling the
// scratch's own methods does not end tracking: the deferred release is
// accepted, the early error return that skips it is reported.
func TestPageBufReleaseSeesScratch(t *testing.T) {
	checkPageBufFixture(t, "scratch")
}

// checkPageBufFixture runs the pagebufrelease pass over one of its extra
// fixtures and compares the findings with that fixture's expect.txt.
func checkPageBufFixture(t *testing.T, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "pagebufrelease", name)
	want, err := os.ReadFile(filepath.Join(dir, "expect.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(runFixture(t, PageBufRelease, dir), "\n") + "\n"; got != string(want) {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestAllowDirective checks both placement forms of //mobidxlint:allow:
// the annotated drops vanish, the unannotated one is still reported.
func TestAllowDirective(t *testing.T) {
	got := runFixture(t, ErrDrop, filepath.Join("testdata", "allow"))
	if len(got) != 1 {
		t.Fatalf("want exactly the unannotated finding, got %d:\n%s", len(got), strings.Join(got, "\n"))
	}
	if !strings.Contains(got[0], "allow.go:18") {
		t.Errorf("surviving finding anchored to the wrong line: %s", got[0])
	}
}

// TestAllowConcurrency checks the allow directive against the new
// concurrency passes: both placement forms suppress, an unannotated
// violation survives, and an annotation naming one pass does not
// silence another.
func TestAllowConcurrency(t *testing.T) {
	dir := filepath.Join("testdata", "allowconc")

	lock := runFixture(t, LockOrder, dir)
	if len(lock) != 2 {
		t.Fatalf("lockorder: want the unannotated and wrong-pass findings, got %d:\n%s",
			len(lock), strings.Join(lock, "\n"))
	}
	if !strings.Contains(lock[0], "allowconc.go:31") || !strings.Contains(lock[1], "allowconc.go:38") {
		t.Errorf("lockorder survivors anchored to the wrong lines:\n%s", strings.Join(lock, "\n"))
	}

	goro := runFixture(t, GoroLifecycle, dir)
	if len(goro) != 1 {
		t.Fatalf("gorolifecycle: want exactly the unannotated spawn, got %d:\n%s",
			len(goro), strings.Join(goro, "\n"))
	}
	if !strings.Contains(goro[0], "allowconc.go:53") {
		t.Errorf("gorolifecycle survivor anchored to the wrong line: %s", goro[0])
	}
}

// TestSortDiagnostics pins the deterministic output order every pass
// and the CLI rely on: file, then line, then column, then pass name.
func TestSortDiagnostics(t *testing.T) {
	diags := []Diagnostic{
		{Pass: "nopanic", File: "b.go", Line: 1, Col: 1},
		{Pass: "errdrop", File: "a.go", Line: 9, Col: 2},
		{Pass: "lockorder", File: "a.go", Line: 9, Col: 1},
		{Pass: "ctxflow", File: "a.go", Line: 2, Col: 5},
		{Pass: "atomicmix", File: "a.go", Line: 9, Col: 1},
	}
	SortDiagnostics(diags)
	want := []string{"ctxflow", "atomicmix", "lockorder", "errdrop", "nopanic"}
	for i, d := range diags {
		if d.Pass != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, d.Pass, want[i], diags)
		}
	}
}

// TestPassFilter drives the CLI's -passes resolution end to end for a
// new pass: selecting exactly lockorder runs lockorder and nothing
// else, even on a fixture that would trip other passes too.
func TestPassFilter(t *testing.T) {
	selected, err := ByName("lockorder")
	if err != nil || len(selected) != 1 || selected[0] != LockOrder {
		t.Fatalf("ByName(lockorder) = %v, err %v", selected, err)
	}
	got := runFixture(t, selected[0], filepath.Join("testdata", "lockorder", "bad"))
	if len(got) == 0 {
		t.Fatal("filtered run produced no findings on the bad fixture")
	}
	for _, line := range got {
		if !strings.Contains(line, " lockorder: ") {
			t.Errorf("filtered run leaked a foreign diagnostic: %s", line)
		}
	}
}

// TestRepoClean is the self-check the verify gate relies on: the full
// suite, with AppliesTo filters and annotations in force, finds nothing
// in the repository's own production code.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if diags := RunPasses(pkgs, All()); len(diags) != 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		t.Errorf("mobidxlint is not clean on its own repository:\n%s", b.String())
	}
}

// TestByName covers the -passes flag resolution used by the CLI.
func TestByName(t *testing.T) {
	all, err := ByName("all")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(all) = %d passes, err %v", len(all), err)
	}
	two, err := ByName("errdrop, nopanic")
	if err != nil || len(two) != 2 || two[0] != ErrDrop || two[1] != NoPanic {
		t.Fatalf("ByName(errdrop, nopanic) = %v, err %v", two, err)
	}
	if _, err := ByName("nosuchpass"); err == nil {
		t.Fatal("ByName(nosuchpass) should fail")
	}
}
