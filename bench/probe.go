package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a VM of a shared machine whose speed moves by
// tens of percent, from one second to the next and over minutes, as its
// neighbours' load comes and goes, and every CPU time and latency moves
// with it: sets of ten runs of the same code moved their medians by up
// to 42% from one set to the next. So the load generator measures the
// host's speed alongside the server. A probe pass is a fixed computation
// — sorting 8192 pseudo-random integers and hashing 32 KiB — timed in
// the CPU time of a locked OS thread, so waiting for a core does not
// count. Set-up times, CPU times and latencies are reported scaled to a
// reference host, on which a pass takes probeRefMs:
//
//	reported = measured × probeRefMs / median pass time
//
// The passes must cover the same stretch of time as what they scale:
// passes made while the server sat idle before and after the window
// tracked it worse than nothing did, while passes spread through the
// window took the spread of ten runs' server_cpu_ms_per_op from
// 0.03–0.16 of its median to 0.02–0.06.
// The probe runs none of the repository's code. The server's own load
// slows it a little: doubling a workload's rate moved the pass median
// by 1–6%, so a slower server reads up to a few percent faster than it
// is. The measured values are printed alongside.
const (
	// probeRefMs is the median pass time on the reference host, a
	// 2-vCPU x86-64 VM.
	probeRefMs = 0.70
	// probePeriod is the pass interval while the window runs.
	probePeriod = 50 * time.Millisecond
	// setupProbePasses run back to back after each set-up.
	setupProbePasses = 5
)

// hostProbe holds a probe's working memory and the pass times it has
// recorded, in milliseconds.
type hostProbe struct {
	keys    []int32
	data    []byte
	sink    byte // keeps the hash live
	samples []float64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{keys: make([]int32, 8192), data: make([]byte, 32<<10)}
	for i := range p.data {
		p.data[i] = byte(i * 7)
	}
	return p
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// pass runs the computation once and records its CPU time. The caller
// holds its OS thread (runtime.LockOSThread).
func (p *hostProbe) pass() error {
	t0, err := threadCPU()
	if err != nil {
		return err
	}
	x := uint32(12345)
	for i := range p.keys {
		x = x*1664525 + 1013904223
		p.keys[i] = int32(x >> 8)
	}
	slices.Sort(p.keys)
	h := sha256.Sum256(p.data)
	p.sink ^= h[0]
	t1, err := threadCPU()
	if err != nil {
		return err
	}
	p.samples = append(p.samples, float64(t1-t0)/1e6)
	return nil
}

// run makes n passes back to back.
func (p *hostProbe) run(n int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < n; i++ {
		if err := p.pass(); err != nil {
			return err
		}
	}
	return nil
}

// start makes a pass every probePeriod until the returned function is
// called; that function waits for the last pass and returns the first
// error.
func (p *hostProbe) start() (stop func() error) {
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- nil
				return
			case <-tick.C:
				if err := p.pass(); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	return func() error {
		close(quit)
		return <-done
	}
}

// median is the median pass time in milliseconds.
func (p *hostProbe) median() (float64, error) {
	if len(p.samples) == 0 {
		return 0, fmt.Errorf("the host probe made no pass")
	}
	return median(p.samples), nil
}
