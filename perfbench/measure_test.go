//go:build linux

package main

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// spin burns CPU on the calling thread for at least d of wall time.
func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i ^ x
		}
	}
	return x
}

var sink int

func TestThreadCPUCountsOwnWorkOnly(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	c0, err := threadCPU()
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	sink = spin(30 * time.Millisecond)
	busy := time.Since(t0)
	c1, _ := threadCPU()
	if got := c1 - c0; got <= 0 || got > busy+time.Millisecond {
		t.Fatalf("spinning %v read %v of thread CPU, want (0, %v]", busy, got, busy)
	}

	time.Sleep(30 * time.Millisecond)
	c2, _ := threadCPU()
	if idle := c2 - c1; idle > 5*time.Millisecond {
		t.Fatalf("sleeping 30ms read %v of thread CPU", idle)
	}
}

func TestThreadCPUIsFinerThanATick(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// A kernel tick is at least 1 ms; reads of a tick-booked counter move
	// in whole ticks, so 200 µs of work would read as 0 or a full tick.
	c0, _ := threadCPU()
	sink = spin(200 * time.Microsecond)
	c1, _ := threadCPU()
	if d := c1 - c0; d < 100*time.Microsecond || d >= time.Millisecond {
		t.Fatalf("200µs of spinning read %v of thread CPU", d)
	}
}

func TestProcessCPUIncludesOtherThreads(t *testing.T) {
	p0, err := processCPU()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	go func() { done <- spin(40 * time.Millisecond) }()
	sink = <-done
	p1, _ := processCPU()
	if got := p1 - p0; got < 20*time.Millisecond {
		t.Fatalf("another goroutine spinning 40ms raised process CPU by %v", got)
	}
}

func TestPeakRSS(t *testing.T) {
	rss, err := peakRSSMiB()
	if err != nil {
		t.Fatal(err)
	}
	if rss < 1 || rss > 1<<16 {
		t.Fatalf("peak RSS %v MiB", rss)
	}
}

func TestGCReaderCountsCyclesAndAllocation(t *testing.T) {
	g, err := newGCReader()
	if err != nil {
		t.Fatal(err)
	}
	before := g.read()
	var keep [][]byte
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 1<<16))
	}
	runtime.GC()
	after := g.read()
	if got := after.allocBytes - before.allocBytes; got < 64<<16 {
		t.Fatalf("allocating %d bytes read %d", 64<<16, got)
	}
	if after.cycles <= before.cycles {
		t.Fatalf("runtime.GC did not advance the cycle count (%d -> %d)", before.cycles, after.cycles)
	}
	if after.cpu <= before.cpu {
		t.Fatalf("a forced GC cycle did not advance GC CPU (%v -> %v)", before.cpu, after.cpu)
	}
	_ = keep
}

func TestMeterSumsOnlyTimedSections(t *testing.T) {
	g, err := probeReaders()
	if err != nil {
		t.Fatal(err)
	}
	m := &meter{gc: g}
	m.start()
	sink = spin(20 * time.Millisecond)
	m.stop()
	time.Sleep(40 * time.Millisecond) // outside any section
	m.start()
	sink = spin(20 * time.Millisecond)
	m.stop()
	if m.wall < 40*time.Millisecond || m.wall > 55*time.Millisecond {
		t.Fatalf("two 20ms sections summed to %v of wall", m.wall)
	}
	if m.procCPU < 20*time.Millisecond {
		t.Fatalf("two 20ms spins summed to %v of process CPU", m.procCPU)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile must sort
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0 means refused
	}{
		{100, 0.9, 90},
		{99, 0.9, 0},
		{150, 0.9, 135},
		{20, 0.5, 10},
		{19, 0.5, 0},
		{21, 0.5, 11},
		{1000, 0.99, 990},
		{999, 0.99, 0},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if !errors.Is(err, errFewSamples) {
				t.Errorf("p%g of %d samples = %v, %v; want refusal", tc.q*100, tc.n, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", tc.q*100, tc.n, got, err, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}
