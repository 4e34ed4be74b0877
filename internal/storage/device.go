package storage

import (
	"errors"
	"io"
	"time"

	"semplar/internal/netsim"
)

var (
	errInvalidOffset = errors.New("storage: invalid offset")
	errEOF           = io.EOF
)

// DeviceSpec characterizes a storage device: sustained read and write
// bandwidth and a fixed per-operation latency (positioning/seek cost).
// Reads and writes draw from separate limiters: the SRB server answers
// reads largely from its cache/replica tier while writes must commit, which
// is the asymmetry behind Figure 8's read gain exceeding its write gain.
type DeviceSpec struct {
	Name      string
	ReadRate  float64 // bytes/sec, 0 = unlimited
	WriteRate float64 // bytes/sec, 0 = unlimited
	OpLatency time.Duration
}

// Scaled speeds the device up by f, matching netsim.Profile.Scaled.
func (d DeviceSpec) Scaled(f float64) DeviceSpec {
	if f <= 0 || f == 1 {
		return d
	}
	d.ReadRate *= f
	d.WriteRate *= f
	d.OpLatency = time.Duration(float64(d.OpLatency) / f)
	return d
}

// Device wraps a Store so that every object I/O is metered through the
// device's limiters. All objects in the store share the device, so
// concurrent client writes contend exactly as they would on one array.
type Device struct {
	inner Store
	spec  DeviceSpec
	rd    *netsim.Limiter
	wr    *netsim.Limiter
}

// WithDevice attaches a device model to a store.
func WithDevice(inner Store, spec DeviceSpec) *Device {
	d := &Device{inner: inner, spec: spec}
	if spec.ReadRate > 0 {
		d.rd = netsim.NewLimiter(spec.ReadRate)
	}
	if spec.WriteRate > 0 {
		d.wr = netsim.NewLimiter(spec.WriteRate)
	}
	return d
}

// Spec returns the device characteristics.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Create implements Store.
func (d *Device) Create(key string) (Object, error) {
	o, err := d.inner.Create(key)
	if err != nil {
		return nil, err
	}
	return &meteredObject{obj: o, dev: d}, nil
}

// Open implements Store.
func (d *Device) Open(key string) (Object, error) {
	o, err := d.inner.Open(key)
	if err != nil {
		return nil, err
	}
	return &meteredObject{obj: o, dev: d}, nil
}

// Remove implements Store.
func (d *Device) Remove(key string) error { return d.inner.Remove(key) }

// Exists implements Store.
func (d *Device) Exists(key string) bool { return d.inner.Exists(key) }

// Keys implements Store.
func (d *Device) Keys() []string { return d.inner.Keys() }

// meteredObject charges each call's OpLatency and bytes as one paced wait
// on its own schedule: the SRB server drives an open object from one
// goroutine at a time.
type meteredObject struct {
	obj  Object
	dev  *Device
	pace netsim.Pacer
}

func (m *meteredObject) ReadAt(p []byte, off int64) (int, error) {
	n, err := m.obj.ReadAt(p, off)
	m.dev.rd.Wait(&m.pace, m.dev.spec.OpLatency, n)
	return n, err
}

func (m *meteredObject) WriteAt(p []byte, off int64) (int, error) {
	// Charge the device before acknowledging: a committed write is not
	// complete until the array has absorbed it.
	m.dev.wr.Wait(&m.pace, m.dev.spec.OpLatency, len(p))
	return m.obj.WriteAt(p, off)
}

func (m *meteredObject) Size() (int64, error)      { return m.obj.Size() }
func (m *meteredObject) Truncate(size int64) error { return m.obj.Truncate(size) }
func (m *meteredObject) Sync() error               { return m.obj.Sync() }
func (m *meteredObject) Close() error              { return m.obj.Close() }
