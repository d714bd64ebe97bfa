package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm wakes the open loop's dispatcher on time. The runtime checks
// its timers whenever a processor schedules, so a busy process fires
// them promptly, but an idle one sleeps in the network poller with
// millisecond granularity, which would make the dispatcher's lateness
// the largest term of a sub-millisecond latency. A timerfd armed for
// the same instant sits in that poller and wakes it within
// microseconds; nothing reads it, the wake-up alone lets the runtime
// run its due timers.
type alarm struct {
	f  *os.File
	fd uintptr
}

func newAlarm() (*alarm, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &alarm{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil blocks until t.
func (a *alarm) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: a zero interval (one-shot), then the delay.
	// Re-arming also clears the previous expiry, so each arming is a
	// fresh edge for the edge-triggered poller.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	time.Sleep(d)
	return nil
}

func (a *alarm) close() { a.f.Close() }
