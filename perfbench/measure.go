//go:build linux

package main

import (
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

func rusageCPU(who int) (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, fmt.Errorf("getrusage(%d): %w", who, err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// threadCPU returns the CPU time of the calling OS thread. Differencing two
// reads measures a span of work only if the goroutine holds
// runtime.LockOSThread across both. The count includes GC assists charged to
// the goroutine and excludes time the hypervisor stole from the guest.
//
// It reads clock_gettime(CLOCK_THREAD_CPUTIME_ID), not
// getrusage(RUSAGE_THREAD): the kernel answers the latter from the runtime
// it last booked at a scheduler tick, so on a 250 Hz kernel a 12 ms trial
// reads as 8, 12 or 16 ms. The clock books the running slice first and is
// exact to the nanosecond.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// processCPU returns the user plus system CPU time of every thread of the
// process, GC workers included.
func processCPU() (time.Duration, error) { return rusageCPU(syscall.RUSAGE_SELF) }

// peakRSSMiB returns the process's peak resident set size in MiB.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// gcNames are the runtime/metrics the GC reader samples, in gcStats order.
var gcNames = [...]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

// gcStats is a cumulative reading of the Go runtime's GC and allocation
// counters. The GC CPU figure is the runtime's own estimate, which it
// updates as cycles finish.
type gcStats struct {
	cpu        time.Duration
	cycles     uint64
	allocBytes uint64
}

// gcReader samples gcNames without allocating after construction.
type gcReader struct {
	samples [len(gcNames)]metrics.Sample
}

// newGCReader checks that this runtime supports every sampled metric.
func newGCReader() (*gcReader, error) {
	g := new(gcReader)
	for i, name := range gcNames {
		g.samples[i].Name = name
	}
	metrics.Read(g.samples[:])
	for _, s := range g.samples {
		if s.Value.Kind() == metrics.KindBad {
			return nil, fmt.Errorf("runtime/metrics: %s unsupported by this Go runtime", s.Name)
		}
	}
	return g, nil
}

func (g *gcReader) read() gcStats {
	metrics.Read(g.samples[:])
	return gcStats{
		cpu:        time.Duration(g.samples[0].Value.Float64() * 1e9),
		cycles:     g.samples[1].Value.Uint64(),
		allocBytes: g.samples[2].Value.Uint64(),
	}
}

// meter sums wall time, process CPU and GC counters over the timed sections
// of a run; work between sections (verification, digests) is left out.
type meter struct {
	gc      *gcReader
	wall    time.Duration
	procCPU time.Duration
	gcTotal gcStats

	open     time.Time
	openCPU  time.Duration
	openStat gcStats
}

// start opens a timed section.
func (m *meter) start() {
	m.openStat = m.gc.read()
	// The reader was probed at start-up, so getrusage(RUSAGE_SELF) cannot
	// fail here.
	m.openCPU, _ = processCPU()
	m.open = time.Now()
}

// stop closes the section start opened and adds its deltas.
func (m *meter) stop() {
	wall := time.Since(m.open)
	cpu, _ := processCPU() // probed at start-up; cannot fail
	st := m.gc.read()
	m.wall += wall
	m.procCPU += cpu - m.openCPU
	m.gcTotal.cpu += st.cpu - m.openStat.cpu
	m.gcTotal.cycles += st.cycles - m.openStat.cycles
	m.gcTotal.allocBytes += st.allocBytes - m.openStat.allocBytes
}

// probeReaders fails when this kernel or runtime cannot supply one of the
// CPU, memory or GC readings the benchmark reports.
func probeReaders() (*gcReader, error) {
	if _, err := threadCPU(); err != nil {
		return nil, err
	}
	if _, err := processCPU(); err != nil {
		return nil, err
	}
	if _, err := peakRSSMiB(); err != nil {
		return nil, err
	}
	return newGCReader()
}

// minTail is how many samples must lie beyond a reported percentile: a
// percentile resting on fewer describes a handful of trials, not a tail.
const minTail = 10

// errFewSamples reports a percentile refused for lack of samples beyond it.
var errFewSamples = errors.New("too few samples beyond percentile")

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, and refuses one with fewer than minTail samples beyond
// it: p50 needs 20 samples and p90 needs 100.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	// The epsilon keeps q·n = 90.00000000000001 from rounding up a rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d: %w", q*100, n, n-rank, minTail, errFewSamples)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted[rank-1], nil
}

// median returns the middle of samples (the mean of the middle two for an
// even count); it needs no tail, so it suits the few set-up repetitions.
func median(samples []float64) float64 {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
