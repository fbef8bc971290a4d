// Package atomicwrite provides crash-safe atomic file replacement: write
// to a fixed-name temp file, fsync it, keep the previous version as a
// backup, rename into place, and fsync the parent directory. Every write
// goes through an injectable FS so the fault-injection harness can
// exercise the failure paths (internal/faultinject).
//
// The on-disk protocol leaves a recoverable file at every crash point:
//
//	path        the current version (may be missing mid-replacement)
//	path.tmp    a fully written, fsynced new version not yet renamed
//	path.bak    the previous version, displaced by the last replacement
//
// Readers that find path missing or corrupt should try path.tmp (newer
// than path when present) and then path.bak (last good predecessor):
// Recover walks that chain. Durable state is one checksummed record
// (EncodeRecord, ReadRecord), so a reader tells a torn or bit-rotted
// candidate (ErrCorrupt) from an I/O error.
package atomicwrite

import (
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File a durable write needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations behind Write so tests can
// inject failures and latency at each step.
type FS interface {
	// Create truncates or creates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file (or directory) read-only; Write uses it
	// to fsync the parent directory after the rename.
	Open(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

type osFS struct{}

func (osFS) Create(name string) (File, error)     { return os.Create(name) }
func (osFS) Open(name string) (File, error)       { return os.Open(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

// OS is the real filesystem.
var OS FS = osFS{}

// TmpPath and BakPath name the sidecar files of a durable write target.
func TmpPath(path string) string { return path + ".tmp" }
func BakPath(path string) string { return path + ".bak" }

// RecoveryCandidates lists the paths a reader should try, most
// trustworthy first: the file itself, then the fsynced-but-unrenamed
// temp (newer than path when a crash hit mid-replacement), then the
// previous version.
func RecoveryCandidates(path string) []string {
	return []string{path, TmpPath(path), BakPath(path)}
}

// Write atomically replaces path with the bytes produced by write,
// surviving a crash at any point without losing the last good version:
//
//  1. write path.tmp and fsync it (contents durable before any rename)
//  2. rename path -> path.bak (previous version preserved)
//  3. rename path.tmp -> path
//  4. fsync the parent directory (both renames durable)
//
// On error the target file is untouched (or recoverable via path.tmp /
// path.bak) and the temp file is removed when it holds no committed data.
func Write(fs FS, path string, write func(io.Writer) error) error {
	if fs == nil {
		fs = OS
	}
	tmp := TmpPath(path)
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	// Displace the previous version to .bak; a missing previous version
	// is the first write, not an error.
	if err := fs.Rename(path, BakPath(path)); err != nil && !os.IsNotExist(err) {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		// path is gone (moved to .bak) but tmp still holds the new
		// version; leave both for recovery rather than deleting data.
		return err
	}
	// Make the renames durable: fsync the directory entry. Without this a
	// crash can roll the directory back to a state where path is missing
	// even though the data blocks were synced.
	if d, err := fs.Open(filepath.Dir(path)); err == nil {
		serr := d.Sync()
		d.Close()
		return serr
	}
	return nil
}
