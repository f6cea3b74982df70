package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tempLeftovers lists the WriteAtomic temp files left in dir.
func tempLeftovers(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestWriteAtomicReplaces pins the success path: the new content
// replaces the old, and no temp file is left next to it.
func TestWriteAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, content := range []string{"first\n", "second, longer content\n", "3\n"} {
		if err := WriteAtomic(path, []byte(content)); err != nil {
			t.Fatalf("WriteAtomic(%q): %v", content, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Errorf("content = %q, want %q", got, content)
		}
	}
	if left := tempLeftovers(t, dir); len(left) > 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestWriteAtomicRenameFailure pins the failure path: when the rename
// cannot replace the target (here an existing non-empty directory), the
// error is returned, the target is untouched, and the temp file is
// removed.
func TestWriteAtomicRenameFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(path, []byte("data")); err == nil {
		t.Fatal("WriteAtomic over a directory succeeded")
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Errorf("target directory disturbed: %v", err)
	}
	if left := tempLeftovers(t, dir); len(left) > 0 {
		t.Errorf("temp files left behind after a failed rename: %v", left)
	}
}
