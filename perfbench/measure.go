package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Runtime metrics read around a replay. The live-heap gauge is what the
// last garbage collection marked, so sampling it during the replay catches
// the peak working set rather than only the heap left at the end.
const (
	rmLive       = "/gc/heap/live:bytes"
	rmAllocObjs  = "/gc/heap/allocs:objects"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// rtSample is one read of the cumulative runtime counters.
type rtSample struct {
	allocObjs, allocBytes uint64
	gcCPU, totalCPU       float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: rmAllocObjs}, {Name: rmAllocBytes}, {Name: rmGCCPU}, {Name: rmTotalCPU}}
	metrics.Read(s)
	return rtSample{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: rmLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// processCPU returns the user+system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCost is what one replay phase cost the host.
type hostCost struct {
	Wall, CPU  time.Duration
	PeakLive   uint64
	AllocObjs  uint64
	AllocBytes uint64
	GCCPUFrac  float64
}

// meter measures one replay phase: wall and process CPU time, runtime
// allocation deltas, and the peak live heap sampled every few milliseconds
// by a goroutine that stop ends and waits for.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	rt0  rtSample
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapSamplePeriod = 5 * time.Millisecond

func startMeter() *meter {
	m := &meter{stop: make(chan struct{})}
	m.rt0 = readRuntime()
	m.cpu0 = processCPU()
	m.t0 = time.Now()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				if v := liveHeap(); v > m.peak {
					m.peak = v
				}
			}
		}
	}()
	return m
}

// end stops the phase. It then collects garbage once, outside the timed
// window, so the heap the replay still holds counts towards the peak even
// when no collection ran late in the replay.
func (m *meter) end() hostCost {
	wall := time.Since(m.t0)
	cpu := processCPU() - m.cpu0
	rt := readRuntime()
	close(m.stop)
	m.wg.Wait()
	runtime.GC()
	if v := liveHeap(); v > m.peak {
		m.peak = v
	}
	hc := hostCost{
		Wall:       wall,
		CPU:        cpu,
		PeakLive:   m.peak,
		AllocObjs:  rt.allocObjs - m.rt0.allocObjs,
		AllocBytes: rt.allocBytes - m.rt0.allocBytes,
	}
	if d := rt.totalCPU - m.rt0.totalCPU; d > 0 {
		hc.GCCPUFrac = (rt.gcCPU - m.rt0.gcCPU) / d
	}
	return hc
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(f float64) float64 { return s[int(f*float64(len(s)-1))] }
	return [3]float64{at(0.25), median(s), at(0.75)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
