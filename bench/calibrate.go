package main

import (
	"runtime"
	"sort"
	"time"
)

// Host-speed calibration.
//
// On this shared 2-core host the same op runs 10-20 % slower or faster
// from one minute to the next, in phases that last from seconds to
// minutes — longer than a run, so no statistic over one run's ops
// removes them, and ten raw runs of one workload spread by 8-23 % of
// their median. The phases are phases of the memory system: a pure ALU
// loop keeps its time within 2 % through them, a pointer chase over
// 16 MB follows them, and a loop that allocates small objects and sorts
// them — the calibration kernel — follows them best (README.md has, per
// workload, the spread of ten runs raw and divided by each of the
// three). The measured phase therefore runs the kernel between ops
// every calEvery, with every client paused, and the latency and
// throughput metrics are reported at reference host speed: multiplied by
// calRef ÷ the run's median kernel time. The kernel is benchmark code
// that no change to the system can speed up, both sides of a comparison
// are scaled the same way, and every run prints its factor and the raw
// op_ms_p50 beside the table.

const (
	calEvery = 250 * time.Millisecond
	calItems = 20000
	// calRef is roughly the kernel's median on this host. It only fixes
	// the unit, so that normalised times still read as milliseconds here.
	calRef = 7 * time.Millisecond
)

// calSum keeps the kernel's result observable without keeping its
// allocations alive.
var calSum int

// calibrate runs the calibration kernel once and returns its wall time:
// calItems small allocations, a sort that scatters them, a walk.
func calibrate() time.Duration {
	t0 := time.Now()
	keep := make([][]int, calItems)
	for i := range keep {
		s := make([]int, 24)
		s[0] = i * 7919 % 10007
		keep[i] = s
	}
	sort.Slice(keep, func(a, b int) bool { return keep[a][0] < keep[b][0] })
	sum := 0
	for _, s := range keep {
		sum += s[0]
		s[23] = sum
	}
	calSum = sum
	return time.Since(t0)
}

// calCost measures what one kernel call allocates, so that the kernel's
// own allocations can be taken out of allocs_per_op and alloc_kb_per_op.
// The kernel's allocation is deterministic; the minimum over a few calls
// drops whatever a background goroutine allocated meanwhile.
func calCost() (mallocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&m0)
		calibrate()
		runtime.ReadMemStats(&m1)
		dm, db := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		if i == 0 || dm < mallocs {
			mallocs = dm
		}
		if i == 0 || db < bytes {
			bytes = db
		}
	}
	return mallocs, bytes
}

// speedFactor is calRef ÷ the median of the kernel times (milliseconds):
// what a time measured while the kernel ran that slowly is multiplied by.
func speedFactor(calMS []float64) float64 {
	return ms(calRef) / median(calMS)
}
