package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The Go runtime parks an idle process's timers in epoll_wait, whose
// timeout has millisecond granularity, so a generator sleeping with
// time.Sleep wakes up to a millisecond late whenever no response
// happens to arrive first — lateness an open-loop generator charges to
// every request due meanwhile, and which made the p99 of a 100k/s
// phase swing between runs by half. A pacer instead pins its goroutine
// to an OS thread with 1µs timer slack and sleeps in nanosleep(2). To
// keep the syscall rate bounded at high request rates, an open-loop
// schedule is quantized to pacerTick (openResult.due): the requests
// falling in one tick are all due at its start and leave as one burst,
// so a sender wakes at most once per tick and no request is held past
// its due time on purpose.
const pacerTick = 100 * time.Microsecond

var spareProcs sync.Once

// pacer returns the sleep-until function of the calling goroutine,
// which stays locked to its thread for its lifetime: the thread exits
// with it, taking its timer slack setting along. A locked goroutine
// that blocks on a channel must be handed back to that one thread to
// wake up, so a pacer goroutine should only sleep and write.
func pacer() func(time.Time) {
	// A pacer holds its thread inside nanosleep; spare Ps let it return
	// from the syscall without queueing behind the receiver goroutines.
	spareProcs.Do(func() { runtime.GOMAXPROCS(runtime.NumCPU() + 2) })
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	return func(t time.Time) {
		for d := time.Until(t); d > 0; d = time.Until(t) {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
		}
	}
}
