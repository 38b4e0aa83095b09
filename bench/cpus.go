package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a CPU affinity mask of up to 1024 CPUs, as the kernel takes it.
type cpuMask [16]uint64

func affinity(tid int, call uintptr, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// confine restricts every thread of the process, and the threads they
// start, to the first n of the CPUs the process may use, sets GOMAXPROCS
// to n, and returns the function that undoes both.
func confine(n int) (restore func(), err error) {
	var allowed, few cpuMask
	if err := affinity(0, syscall.SYS_SCHED_GETAFFINITY, &allowed); err != nil {
		return nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	for cpu, left := 0, n; cpu < 64*len(allowed) && left > 0; cpu++ {
		if bit := uint64(1) << (cpu % 64); allowed[cpu/64]&bit != 0 {
			few[cpu/64] |= bit
			left--
		}
	}
	procs := runtime.GOMAXPROCS(n)
	if err := setAllThreads(&few); err != nil {
		return nil, err
	}
	return func() {
		runtime.GOMAXPROCS(procs)
		_ = setAllThreads(&allowed) // it worked on the way in
	}, nil
}

func setAllThreads(m *cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exited since the listing is not an error.
		if err := affinity(tid, syscall.SYS_SCHED_SETAFFINITY, m); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
		}
	}
	return nil
}
