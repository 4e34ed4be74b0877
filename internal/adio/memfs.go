package adio

import (
	"fmt"
	"io"

	"semplar/internal/storage"
)

// MemFSDriver is an in-process ADIO filesystem used by tests and examples
// that need a fast local baseline (the "local I/O" side of the paper's
// local-vs-remote gap).
type MemFSDriver struct {
	store *storage.MemStore
}

// NewMemFS returns an empty in-memory filesystem driver.
func NewMemFS() *MemFSDriver {
	return &MemFSDriver{store: storage.NewMemStore()}
}

// Name implements Driver.
func (*MemFSDriver) Name() string { return "mem" }

// Open implements Driver.
func (d *MemFSDriver) Open(path string, flags int, hints Hints) (File, error) {
	obj, err := d.store.Open(path)
	switch {
	case err == storage.ErrNotFound && flags&O_CREATE != 0:
		obj, err = d.store.Create(path)
		if err == storage.ErrExists { // lost a create race; reopen
			obj, err = d.store.Open(path)
		}
	case err == nil && flags&O_CREATE != 0 && flags&O_EXCL != 0:
		return nil, fmt.Errorf("memfs: %s: file exists", path)
	}
	if err != nil {
		return nil, fmt.Errorf("memfs: %s: %w", path, err)
	}
	if flags&O_TRUNC != 0 && flags&O_ACCESS != O_RDONLY {
		if err := obj.Truncate(0); err != nil {
			return nil, err
		}
	}
	return memFile{obj}, nil
}

// Delete implements Driver.
func (d *MemFSDriver) Delete(path string) error { return d.store.Remove(path) }

type memFile struct {
	obj storage.Object
}

func (m memFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := m.obj.ReadAt(p, off)
	if err == io.EOF && n == len(p) {
		err = nil
	}
	return n, err
}

func (m memFile) WriteAt(p []byte, off int64) (int, error) { return m.obj.WriteAt(p, off) }

// ReadAtVec and WriteAtVec implement VectorIO with a plain per-segment
// loop: memory is random-access, so there are no round trips to save.
func (m memFile) ReadAtVec(segs []Vec) (int, error) { return loopVec(segs, m.ReadAt, io.EOF) }
func (m memFile) WriteAtVec(segs []Vec) (int, error) {
	return loopVec(segs, m.WriteAt, io.ErrShortWrite)
}

func (m memFile) Size() (int64, error)      { return m.obj.Size() }
func (m memFile) Truncate(size int64) error { return m.obj.Truncate(size) }
func (m memFile) Sync() error               { return m.obj.Sync() }
func (m memFile) Close() error              { return m.obj.Close() }
