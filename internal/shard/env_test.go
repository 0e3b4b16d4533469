package shard

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"mobidx/internal/pager"
)

// TestDirEnvReopensUnfinishedStore: a crash while a shard store was being
// created leaves a pages file shorter than one page. OpenMedia must treat
// it as the creation it is — a fresh, usable store — and not refuse it.
func TestDirEnvReopensUnfinishedStore(t *testing.T) {
	const ps = 256
	// The first page of a finished creation, to cut prefixes from.
	ref := filepath.Join(t.TempDir(), "ref.pages")
	fs, err := pager.NewFileStore(ref, ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	slot0, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 16, ps / 2, ps - 1} {
		dir := t.TempDir()
		env, err := NewDirEnv(dir, ps)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "shard-0.pages"), slot0[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := env.OpenMedia("shard-0")
		if err != nil {
			t.Fatalf("cut %d: open unfinished store: %v", cut, err)
		}
		if n := m.Base.PagesInUse(); n != 0 {
			t.Fatalf("cut %d: fresh store holds %d pages", cut, n)
		}
		p, err := m.Base.Allocate()
		if err != nil {
			t.Fatalf("cut %d: allocate: %v", cut, err)
		}
		p.Data[0] = 0x5A
		if err := m.Base.Write(p); err != nil {
			t.Fatalf("cut %d: write: %v", cut, err)
		}
		if got, err := m.Base.Read(p.ID); err != nil || got.Data[0] != 0x5A {
			t.Fatalf("cut %d: read back: %v", cut, err)
		}
		if err := m.Base.(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Log.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
