package fsx

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicCreatesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")

	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("read %q", got)
	}
	if err := WriteFileAtomic(path, []byte("v2 longer"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2 longer" {
		t.Fatalf("after replace read %q", got)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, err = %v", fi.Mode(), err)
	}
}

func TestWriteFileAtomicLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("data"), 0o600); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "out.json" {
		t.Fatalf("directory not clean: %v", entries)
	}
}

// TestWriteFileAtomicCrashBeforeRename simulates a process dying in the
// window between the fully-written temp file and the rename that publishes
// it: the previous contents must survive untouched and no temp file may be
// left behind.
func TestWriteFileAtomicCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if err := WriteFileAtomic(path, []byte("old checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	errCrash := errors.New("injected crash before rename")
	rename = func(string, string) error { return errCrash }
	err := WriteFileAtomic(path, []byte("new checkpoint"), 0o644)
	rename = os.Rename
	if !errors.Is(err, errCrash) {
		t.Fatalf("err = %v, want injected crash", err)
	}

	if got, err := os.ReadFile(path); err != nil || string(got) != "old checkpoint" {
		t.Fatalf("previous contents corrupted: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ckpt.json" {
		t.Fatalf("orphaned files after simulated crash: %v", entries)
	}

	// With the real rename back, the same write must go through.
	if err := WriteFileAtomic(path, []byte("new checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new checkpoint" {
		t.Fatalf("retry wrote %q", got)
	}
}

// TestWriteFileAtomicCrashAtDirSync simulates a directory-sync failure in
// the window after the rename published the file: the error must surface
// (durability is not established), but the published contents — not the old
// ones — are what readers see, and no temp file may be left behind.
func TestWriteFileAtomicCrashAtDirSync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if err := WriteFileAtomic(path, []byte("old checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	errCrash := errors.New("injected dirsync failure")
	syncDir = func(string) error { return errCrash }
	err := WriteFileAtomic(path, []byte("new checkpoint"), 0o644)
	syncDir = fsyncDir
	if !errors.Is(err, errCrash) {
		t.Fatalf("err = %v, want injected dirsync failure", err)
	}

	// Unlike a pre-rename crash, the rename already happened: the new
	// contents are visible, just not durably recorded.
	if got, err := os.ReadFile(path); err != nil || string(got) != "new checkpoint" {
		t.Fatalf("post-rename contents = %q, %v, want new checkpoint", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ckpt.json" {
		t.Fatalf("orphaned files after simulated dirsync crash: %v", entries)
	}

	// With the real directory sync back, the same write completes durably.
	if err := WriteFileAtomic(path, []byte("final"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "final" {
		t.Fatalf("retry wrote %q", got)
	}
}

func TestWriteFileAtomicFailurePreservesOriginal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "missing", "out.json")
	// Target directory does not exist: the write must fail without
	// creating anything.
	if err := WriteFileAtomic(path, []byte("data"), 0o644); err == nil {
		t.Fatal("expected error writing into a missing directory")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("stat err = %v, want not-exist", err)
	}
}
