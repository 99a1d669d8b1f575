package main

// The benchmark runs on Linux only: its open-loop sleeper is a timerfd,
// and it reads the process's CPU time and peak RSS from getrusage.

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits until a due time with microsecond precision. The Go
// runtime's timers wake up to a millisecond late, which would swamp
// the open loop's latencies, and a nanosleep holds the caller's P
// until the runtime notices the blocked thread. A timerfd read parks
// the goroutine in the network poller instead: the P is free at once
// and the wakeup comes within microseconds of the due time.
type sleeper struct {
	fd  int
	f   *os.File // the same descriptor, registered with the poller
	buf [8]byte
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: a zero interval (one shot), then the value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() error { return s.f.Close() }

// datasync is fdatasync(2), the oplog's sync on Linux.
func datasync(f *os.File) error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return err
		}
	}
}

// rusage returns the process's resident-set high-water mark in bytes
// and the CPU time, user plus system, it has used in seconds.
func rusage() (peakRSS, cpu float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	// Linux reports ru_maxrss in KiB.
	return float64(ru.Maxrss) * 1024, tv(ru.Utime) + tv(ru.Stime), nil
}
