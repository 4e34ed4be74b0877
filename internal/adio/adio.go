// Package adio reproduces ROMIO's Abstract-Device Interface for I/O: a
// small driver interface through which a portable MPI-IO layer reaches
// filesystem-specific implementations (UFS, an in-memory FS, and SEMPLAR's
// SRBFS). Drivers register by scheme name; paths of the form
// "scheme:/logical/path" route to the matching driver.
package adio

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Open flags, shared by all drivers (values mirror the SRB protocol).
// O_APPEND is MPI_MODE_APPEND: the MPI-IO layer consumes it by starting the
// individual file pointer at end of file, and drivers, which take explicit
// offsets only, ignore it.
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
	O_RDWR   = 0x2
	O_ACCESS = 0x3
	O_CREATE = 0x4
	O_TRUNC  = 0x8
	O_EXCL   = 0x10
	O_APPEND = 0x20
)

// ErrUnknownDriver is returned when a path names an unregistered scheme.
var ErrUnknownDriver = errors.New("adio: unknown driver")

// Hints carries MPI_Info-style key/value tuning hints to the driver and to
// the MPI-IO layer above it. Keys understood today:
//
//	io_threads      mpiio: async engine worker count
//	streams         SRBFS: connections to stripe across
//	stripe_size     SRBFS/federation: stripe unit in bytes
type Hints map[string]string

// Get returns the hint value or a default.
func (h Hints) Get(key, def string) string {
	if h == nil {
		return def
	}
	if v, ok := h[key]; ok {
		return v
	}
	return def
}

// File is the per-handle device interface: explicit-offset I/O only, as in
// ADIO; file pointers and nonblocking calls are layered above. Every File
// takes list I/O (VectorIO): a noncontiguous request is the driver's to
// serve.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	VectorIO
	Size() (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Vec is one segment of a vectored (list-I/O) transfer: len(Buf) bytes at
// absolute file offset Off.
type Vec struct {
	Off int64
	Buf []byte
}

// VectorIO moves many discontiguous extents in one call (ROMIO's list
// I/O). Every driver implements it, and how it serves the list is the
// driver's choice, as ROMIO leaves it to each ADIO device: memfs loops over
// the segments, ufs data-sieves them (sieve.go), and SRBFS and FedFS ship
// the whole vector over the wire in few round trips. The MPI-IO layer
// sends every strided access that spans more than one view frame here.
//
// Semantics mirror ReadAt/WriteAt applied per segment in slice order
// (loopVec): the returned count is the contiguous prefix (in segment order)
// actually transferred, and a transfer that ends early reports io.EOF
// (reads) or io.ErrShortWrite (writes) alongside that prefix. Segments
// should be sorted by ascending offset and non-overlapping. The caller may
// reuse segs and its buffers once the call returns, so an implementation
// that finishes work later (FedFS's async replicas) copies what it keeps.
type VectorIO interface {
	ReadAtVec(segs []Vec) (int, error)
	WriteAtVec(segs []Vec) (int, error)
}

// loopVec applies op, a file's ReadAt or WriteAt, to each segment in
// order and stops at the first error, or at the first short transfer, which
// it reports as short (io.EOF or io.ErrShortWrite): the reference
// semantics of VectorIO that every driver's list I/O must match.
func loopVec(segs []Vec, op func([]byte, int64) (int, error), short error) (int, error) {
	total := 0
	for _, s := range segs {
		n, err := op(s.Buf, s.Off)
		total += n
		if err != nil {
			return total, err
		}
		if n < len(s.Buf) {
			return total, short
		}
	}
	return total, nil
}

// Driver is one filesystem implementation.
type Driver interface {
	// Name is the scheme this driver serves (e.g. "ufs", "srb").
	Name() string
	// Open opens or creates the file at the driver-local path.
	Open(path string, flags int, hints Hints) (File, error)
	// Delete removes the file at the driver-local path.
	Delete(path string) error
}

// Registry maps scheme names to drivers. The zero value is ready to use;
// most callers use the package-level Default registry.
type Registry struct {
	mu      sync.RWMutex
	drivers map[string]Driver
}

// Register adds or replaces a driver.
func (r *Registry) Register(d Driver) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.drivers == nil {
		r.drivers = make(map[string]Driver)
	}
	r.drivers[d.Name()] = d
}

// Lookup returns the driver for a scheme.
func (r *Registry) Lookup(scheme string) (Driver, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.drivers[scheme]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDriver, scheme)
	}
	return d, nil
}

// Drivers lists registered scheme names, sorted.
func (r *Registry) Drivers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.drivers))
	for name := range r.drivers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Resolve splits "scheme:path" and returns the driver plus the local path.
// Paths without a scheme default to "ufs".
func (r *Registry) Resolve(path string) (Driver, string, error) {
	scheme, local := SplitPath(path)
	d, err := r.Lookup(scheme)
	if err != nil {
		return nil, "", err
	}
	return d, local, nil
}

// Open resolves the path and opens it on its driver.
func (r *Registry) Open(path string, flags int, hints Hints) (File, error) {
	d, local, err := r.Resolve(path)
	if err != nil {
		return nil, err
	}
	return d.Open(local, flags, hints)
}

// Delete resolves the path and deletes it on its driver.
func (r *Registry) Delete(path string) error {
	d, local, err := r.Resolve(path)
	if err != nil {
		return err
	}
	return d.Delete(local)
}

// SplitPath separates the scheme prefix from the driver-local path.
// "srb:/d/f" -> ("srb", "/d/f"); "/tmp/x" -> ("ufs", "/tmp/x").
func SplitPath(path string) (scheme, local string) {
	if i := strings.Index(path, ":"); i > 0 && !strings.Contains(path[:i], "/") {
		return path[:i], path[i+1:]
	}
	return "ufs", path
}

// Default is the process-wide registry, preloaded with the ufs driver.
var Default = func() *Registry {
	r := &Registry{}
	r.Register(UFSDriver{})
	return r
}()
