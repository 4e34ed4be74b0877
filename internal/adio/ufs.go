package adio

import (
	"os"
	"sync"
)

// UFSDriver is the Unix-filesystem ADIO implementation backed by the host
// OS (ROMIO's ad_ufs). Its list I/O is data sieving (sieve.go).
type UFSDriver struct{}

// Name implements Driver.
func (UFSDriver) Name() string { return "ufs" }

// Open implements Driver.
func (UFSDriver) Open(path string, flags int, hints Hints) (File, error) {
	f, err := os.OpenFile(path, toOSFlags(flags), 0o644)
	if err != nil {
		return nil, err
	}
	return &ufsFile{f: f}, nil
}

// Delete implements Driver.
func (UFSDriver) Delete(path string) error { return os.Remove(path) }

func toOSFlags(flags int) int {
	var out int
	switch flags & O_ACCESS {
	case O_RDONLY:
		out = os.O_RDONLY
	case O_WRONLY:
		out = os.O_WRONLY
	default:
		out = os.O_RDWR
	}
	if flags&O_CREATE != 0 {
		out |= os.O_CREATE
	}
	if flags&O_TRUNC != 0 {
		out |= os.O_TRUNC
	}
	if flags&O_EXCL != 0 {
		out |= os.O_EXCL
	}
	return out
}

type ufsFile struct {
	f   *os.File
	rmw sync.Mutex // serializes this handle's sieve read-modify-write cycles
}

func (u *ufsFile) ReadAt(p []byte, off int64) (int, error)  { return u.f.ReadAt(p, off) }
func (u *ufsFile) WriteAt(p []byte, off int64) (int, error) { return u.f.WriteAt(p, off) }
func (u *ufsFile) ReadAtVec(segs []Vec) (int, error)        { return sieveReadVec(u.f, segs, sieveWindow) }
func (u *ufsFile) WriteAtVec(segs []Vec) (int, error) {
	return sieveWriteVec(&u.rmw, u.f, segs, sieveWindow)
}

func (u *ufsFile) Size() (int64, error) {
	st, err := u.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (u *ufsFile) Truncate(size int64) error { return u.f.Truncate(size) }
func (u *ufsFile) Sync() error               { return u.f.Sync() }
func (u *ufsFile) Close() error              { return u.f.Close() }
