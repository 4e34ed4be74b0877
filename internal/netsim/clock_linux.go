package netsim

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A timerfd is a kernel hrtimer readable as a file. Opened nonblocking, it
// joins the Go netpoller, so a goroutine blocked reading it holds no P and
// wakes when the timer fires, not at the runtime's next millisecond tick.
type timerfd struct {
	f   *os.File
	fd  uintptr // f's descriptor; f.Fd() would switch f back to blocking
	buf [8]byte // expiration count, read and discarded
}

// timerfds holds disarmed timers for reuse. The pool starts empty; one
// dropped by the GC is closed by its *os.File finalizer.
var timerfds sync.Pool

// clockMonotonic is CLOCK_MONOTONIC, the clock behind time.Now's monotonic
// reading, so a timer armed for d never fires before now()+d. O_NONBLOCK
// and O_CLOEXEC are TFD_NONBLOCK and TFD_CLOEXEC.
const (
	clockMonotonic = 1
	tfdFlags       = syscall.O_NONBLOCK | syscall.O_CLOEXEC
)

// waitPrecise blocks for d (> 0) on a pooled timerfd, reporting false if
// no timer could be armed or read, in which case the caller waits on its
// own.
func waitPrecise(d time.Duration) bool {
	t, _ := timerfds.Get().(*timerfd)
	if t == nil {
		fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdFlags, 0)
		if errno != 0 {
			return false // ENOSYS, or out of descriptors for now
		}
		t = &timerfd{f: os.NewFile(fd, "timerfd"), fd: fd}
	}
	if !t.wait(d) {
		//lint:allow errdrop -- a timer that failed is dropped; the caller falls back to the Go timer
		t.f.Close()
		return false
	}
	timerfds.Put(t)
	return true
}

// wait arms t once, d from now, and blocks until it fires.
func (t *timerfd) wait(d time.Duration) bool {
	// it_interval stays zero (one-shot) and it_value is d, relative; d is
	// nonzero, so the call arms the timer rather than disarming it.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return false
	}
	_, err := t.f.Read(t.buf[:])
	return err == nil
}
