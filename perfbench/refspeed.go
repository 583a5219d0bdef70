package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference speed. The benchmark runs on a few cores of a shared host
// whose effective speed moves with its neighbours' load: the same workload
// run back to back varies a few percent, but minutes apart its throughput
// drifts 20-30%. So that runs minutes apart stay comparable, a probe
// goroutine times a fixed kernel alongside the whole run, and the
// end-to-end times are quoted at a reference speed: a time measured while
// the probe ran at R steps/s is reported as t·R/refStepsPerS, a rate as
// r·refStepsPerS/R. The kernel is the benchmark's own and runs no code of
// the program under test, so a change to the program moves the quoted
// figures by the same ratio as the measured ones.
//
// The kernel is eight independent integer lanes, wide enough to fill the
// core's execution ports: a neighbour sharing the physical core slows it
// about as much as it slows the workloads (across runs of one workload,
// log throughput against log probe speed fitted slopes of 0.7-0.9 at a
// correlation of 0.94), where a single dependent chain, bound by multiply
// latency, barely noticed the contention.
const (
	// refStepsPerS is the reference speed, in probe steps per second.
	refStepsPerS = 2e9
	// probeEvery is the probe's period and probeChunk the steps of one
	// timed chunk, about 0.4 ms on the reference machine: one CPU's 4%, on
	// every run alike.
	probeEvery = 10 * time.Millisecond
	probeChunk = 512 * probeBatch
	// probeBatch is the number of steps of one probeSteps call.
	probeBatch = 1024
)

// scaling says how a measured value depends on the host's speed.
type scaling int

const (
	scaleNone scaling = iota // a size or count: the same on any host
	scaleTime                // a duration: shorter on a faster host
	scaleRate                // a rate: higher on a faster host
)

// speedProbe samples the host's speed until stopped.
type speedProbe struct {
	stopc chan struct{}
	done  chan struct{}
	rates []float64 // steps per second of each chunk; the loop's until done
	sink  uint64
}

// startProbe starts sampling.
func startProbe() *speedProbe {
	p := &speedProbe{stopc: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	// A chunk is timed on its thread's CPU clock: the time the guest
	// scheduler gives the workload's own threads instead is not the
	// host's speed.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	x := uint64(1)
	for {
		select {
		case <-p.stopc:
			p.sink = x
			return
		case <-tick.C:
		}
		start := threadCPU()
		for n := 0; n < probeChunk/probeBatch; n++ {
			x = probeSteps(x)
		}
		if d := threadCPU() - start; d > 0 {
			p.rates = append(p.rates, probeChunk/d.Seconds())
		}
	}
}

// probeSteps is the probe's kernel: probeBatch steps of a 64-bit linear
// congruential generator over eight lanes held in registers. The lanes'
// steps in one round are independent; an xorshift from the next lane
// mixes them so that none can be optimised away.
func probeSteps(x uint64) uint64 {
	a, b, c, d, e, f, g, h := x, x+1, x+2, x+3, x+4, x+5, x+6, x+7
	for n := 0; n < probeBatch/8; n++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1442695040888963407
		c = c*6364136223846793005 + 1442695040888963407
		d = d*6364136223846793005 + 1442695040888963407
		e = e*6364136223846793005 + 1442695040888963407
		f = f*6364136223846793005 + 1442695040888963407
		g = g*6364136223846793005 + 1442695040888963407
		h = h*6364136223846793005 + 1442695040888963407
		a ^= b >> 17
		b ^= c >> 17
		c ^= d >> 17
		d ^= e >> 17
		e ^= f >> 17
		f ^= g >> 17
		g ^= h >> 17
		h ^= a >> 17
	}
	return a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// stop ends sampling and returns the mean speed in steps per second: the
// time average of the host's speed, as the chunks sample it evenly in time.
func (p *speedProbe) stop() float64 {
	close(p.stopc)
	<-p.done
	return mean(p.rates)
}

// atReference quotes a measured value at the reference speed, given the
// host speed it was measured at.
func atReference(v float64, k scaling, speed float64) float64 {
	switch k {
	case scaleTime:
		return v * speed / refStepsPerS
	case scaleRate:
		return v * refStepsPerS / speed
	}
	return v
}
