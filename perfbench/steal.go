package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// Hypervisor steal.
//
// The benchmark's virtual CPUs share their physical cores with other
// machines. Time the hypervisor gives away while a vCPU wants to run is
// counted by the kernel as steal; the guest's wall clock keeps running
// through it, so a run's wall-clock latencies grow with the host's load
// rather than with the program's work (on the reference container, a
// run's median op latency tracked its steal share from 0.09 to 0.28
// within minutes). Every host time among the end-to-end metrics is
// therefore reported net of steal: the wall time a run measured times
// the share of CPU time it wanted that it actually got,
//
//	net = wall × busy ÷ (busy + steal)
//
// with busy and steal summed over all CPUs from /proc/stat across the
// measured interval. The traced run reports the steal share itself as
// host.steal_frac. Where /proc/stat is missing or reports no steal, net
// time is wall time.

// cpuTimes are the kernel's cumulative CPU-time counters over all CPUs,
// in clock ticks.
type cpuTimes struct {
	busy, steal uint64
}

// readCPUTimes reads the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal ... Guest time is already part of
// user time.
func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var v [8]uint64
	for i := range v {
		n, err := strconv.ParseUint(fields[i+1], 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		v[i] = n
	}
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealFrac is the share of wanted CPU time the hypervisor withheld
// between two readings.
func stealFrac(before, after cpuTimes) float64 {
	if after.busy < before.busy || after.steal < before.steal {
		return 0
	}
	busy, steal := after.busy-before.busy, after.steal-before.steal
	if busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// stopwatch measures an interval in wall time and in wall time net of
// steal.
type stopwatch struct {
	t0 time.Time
	c0 cpuTimes
}

func startStopwatch() stopwatch { return stopwatch{t0: time.Now(), c0: readCPUTimes()} }

// stop returns the interval's wall time and its steal share.
func (w stopwatch) stop() (wall time.Duration, steal float64) {
	wall = time.Since(w.t0)
	return wall, stealFrac(w.c0, readCPUTimes())
}

// netSeconds is the interval's wall time net of steal, in seconds.
func (w stopwatch) netSeconds() float64 {
	wall, steal := w.stop()
	return wall.Seconds() * (1 - steal)
}
