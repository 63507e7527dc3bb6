package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: its speed drifts by up to
// 2x over minutes, and CPU time drifts with it, so raw host times of
// two runs of the same code disagree by more than any useful bound.
// Every host time is therefore measured between two measurements of a
// fixed reference kernel and reported in reference seconds: the raw
// time scaled by (refNominal / mean reference pass time)^refExponent.
// On an undisturbed host a reference second is a wall second.

const (
	// refNominal is the mean time of one reference kernel pass on
	// the undisturbed 2-vCPU Intel Xeon VM (go1.24.0) the benchmark
	// was tuned on.
	refNominal = 0.034
	// refExponent is how much faster than the kernel's the jobs' time
	// grows when the host slows: over ten runs per workload whose raw
	// job times ranged up to 1.9x, log job time rose 1.1-1.5 times as
	// fast as log reference time (correlation 0.91-0.99).
	refExponent = 1.3
	// refPasses is how many kernel passes one reference measurement
	// takes; it keeps their mean wall and CPU times. The host's speed
	// also swings within a second, so a measurement needs a few tenths
	// of a second to read its local mean.
	refPasses = 6
	// refTableBytes is the size of the kernel's pointer-chasing table:
	// 8x a core's 2 MiB L2 on the tuning host.
	refTableBytes = 16 << 20
	// refIters is the number of kernel steps in one pass.
	refIters = 300_000
)

// refNode is one entry of the reference kernel's table.
type refNode struct {
	next int32
	val  int64
}

// ref is one reference measurement: the mean wall and CPU seconds of
// one kernel pass.
type ref struct{ wall, cpu float64 }

var refSink uint64

// measureRef collects the heap, so that no collection is charged to the
// kernel, and times refPasses passes of it. The kernel's table is
// mapped outside the Go heap and unmapped afterwards, so that it moves
// neither the garbage collector's pacing nor the resident set a job
// is charged with.
func measureRef() ref {
	runtime.GC()
	mem, err := syscall.Mmap(-1, 0, refTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	var table []refNode
	if err == nil {
		defer syscall.Munmap(mem)
		table = unsafe.Slice((*refNode)(unsafe.Pointer(&mem[0])), refTableBytes/unsafe.Sizeof(refNode{}))
	} else {
		table = make([]refNode, refTableBytes/unsafe.Sizeof(refNode{}))
	}
	refKernel(table, 1) // fault the table in
	c0 := cpuNow()
	t0 := time.Now()
	for i := 0; i < refPasses; i++ {
		refSink += refKernel(table, uint64(i)+7)
	}
	return ref{time.Since(t0).Seconds() / refPasses, (cpuNow() - c0) / refPasses}
}

// scaled converts a host time t into reference seconds, given the
// mean reference pass time around it.
func scaled(t, pass float64) float64 {
	if pass <= 0 {
		return t
	}
	return t * math.Pow(refNominal/pass, refExponent)
}

// refKernel is the reference work: a fixed, deterministic mix of what
// the simulator's engine does — pointer chasing over a table of
// len(table) nodes, a binary min-heap, map inserts, lookups and
// deletes, and small allocations — written here so that no change to
// the simulator moves it. The table is larger than a core's private
// caches, as the simulator's working set is, so that the kernel slows
// as the jobs do when neighbours crowd the shared cache and memory.
func refKernel(table []refNode, seed uint64) uint64 {
	n := uint64(len(table))
	x := seed | 1
	rnd := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range table {
		table[i] = refNode{int32(rnd() % n), int64(i)}
	}
	var heap []int64
	m := make(map[int64]int32, 4096)
	var acc uint64
	p := int32(0)
	for it := 0; it < refIters; it++ {
		p = table[p].next
		table[p].val += int64(it)
		heap = append(heap, table[p].val^int64(rnd()&0xffff))
		for i := len(heap) - 1; i > 0; {
			j := (i - 1) / 2
			if heap[j] <= heap[i] {
				break
			}
			heap[i], heap[j] = heap[j], heap[i]
			i = j
		}
		if len(heap) > 2048 {
			acc += uint64(heap[0])
			last := len(heap) - 1
			heap[0] = heap[last]
			heap = heap[:last]
			for i := 0; ; {
				l := 2*i + 1
				if l >= len(heap) {
					break
				}
				if r := l + 1; r < len(heap) && heap[r] < heap[l] {
					l = r
				}
				if heap[i] <= heap[l] {
					break
				}
				heap[i], heap[l] = heap[l], heap[i]
				i = l
			}
		}
		k := int64(rnd() & 8191)
		if v, ok := m[k]; ok {
			acc += uint64(v)
			if it&3 == 0 {
				delete(m, k)
			}
		} else {
			m[k] = p
		}
		if it&63 == 0 {
			s := make([]int64, 16+it&15)
			s[0] = int64(acc)
			acc += uint64(len(s))
		}
	}
	return acc
}

func cpuNow() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time if unavailable
	return cpuSeconds(ru)
}

// resetPeakRSS resets the process's peak resident set to its current
// one, so that peakRSSMiB then reads the peak of what runs in between.
// Where the kernel refuses (it is Linux-only), peakRSSMiB keeps reading
// the process's peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the peak resident set (VmHWM) of the process, or
// getrusage's whole-process peak where /proc is unavailable.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Maxrss stays 0 if this fails
	return float64(ru.Maxrss) / 1024
}
