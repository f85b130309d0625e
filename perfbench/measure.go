package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// steadiness report reads the same as a script applying that function to the
// same values. xs needs at least two values; it is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of ds in
// milliseconds (0 for none); ds is not modified.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	d := append([]time.Duration(nil), ds...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	rank := int(q*float64(len(d))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(d) {
		rank = len(d) - 1
	}
	return ms(d[rank])
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuStat is one sample of the aggregate "cpu" line of /proc/stat.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var s cpuStat
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		// Fields after steal (guest, guest_nice) are already counted in user.
		if i < 8 {
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// stealPct is the share of host CPU time stolen by the hypervisor between
// two samples, in percent.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// sleepUntil blocks until t. It sleeps in the kernel's nanosleep rather than
// on a runtime timer, which on Linux wakes up to a millisecond late; an open
// loop charges all of its generator's lateness to the requests it sends.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // the loop resumes an interrupted sleep
	}
}

// window captures the process-level counters around one timed window.
type window struct {
	start time.Time
	cpu   time.Duration
	stat  cpuStat
}

func startWindow() window {
	return window{start: time.Now(), cpu: cpuTime(), stat: readCPUStat()}
}

// windowResult is what a finished window measured.
type windowResult struct {
	elapsed  time.Duration
	cpu      time.Duration
	stealPct float64
}

func (w window) stop() windowResult {
	return windowResult{
		elapsed:  time.Since(w.start),
		cpu:      cpuTime() - w.cpu,
		stealPct: stealPct(w.stat, readCPUStat()),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
