// Package fsx holds small filesystem helpers shared by every package that
// persists artifacts (trained networks, adversary snapshots, trace datasets).
package fsx

import (
	"os"
	"path/filepath"
)

// rename and syncDir are the two steps whose failure the crash-safety tests
// must provoke without a crashing disk, so they are variables the package's
// own tests replace; nothing outside the package can.
var (
	rename  = os.Rename
	syncDir = fsyncDir
)

// WriteFileAtomic writes data to path so that readers never observe a
// partially-written file: the bytes go to a temporary file in the same
// directory, which is fsync'd and then renamed over path, and finally the
// parent directory is fsync'd so the rename itself is on stable storage. A
// crash mid-write leaves the previous contents of path intact. The rename
// also means path is replaced, never truncated in place, so a concurrent
// reader sees either the old file or the new one.
//
// Without the directory sync a crash (power loss) shortly after a successful
// return could roll the directory entry back to the old contents — fatal for
// cross-process checkpoint hand-off, where a coordinator may tell workers
// about a checkpoint that then vanishes. If the directory sync itself fails,
// the error is returned: the new contents are already visible to readers in
// this boot, but their durability is not established.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	// On any failure, remove the orphaned temp file before reporting.
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// CreateTemp makes the file 0600; apply the requested mode before it
	// becomes visible under its final name.
	if err := os.Chmod(tmp, perm); err != nil {
		os.Remove(tmp)
		return err
	}
	// A failed rename must leave any previous contents of path untouched.
	if err := rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// A failed directory sync comes after the rename: the new contents are
	// what readers see, only their durability is not established.
	return syncDir(dir)
}

// fsyncDir fsyncs a directory so renames inside it survive power loss.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some filesystems refuse fsync on directories; there is no portable
	// fallback, so surface the error rather than silently skip durability.
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
