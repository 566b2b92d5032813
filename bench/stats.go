package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) and
// statistics.median compute them, so spreads here match the ones an
// outside checker computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// procStats measures the process doing a workload's work.
type procStats interface {
	cpu() float64 // user+sys seconds so far
	// resetPeak restarts the peak resident set size (VmHWM) from the
	// current one, so peakRSSMiB reports the peak since the reset.
	resetPeak() error
	peakRSSMiB() float64
	snapshot() snapshot
}

// snapshot is the measured process's runtime and service accounting at
// one instant; a phase reports the difference of two.
type snapshot struct {
	gcCPU, totalCPU, allocBytes float64
	// gcFraction, when set, is the runtime's own cumulative GC CPU share
	// (raderd publishes only that, not the CPU classes).
	gcFraction float64
	// series holds raderd's /metrics series by name and labels.
	series map[string]float64
}

func (s snapshot) sub(o snapshot) snapshot {
	d := snapshot{
		gcCPU:      s.gcCPU - o.gcCPU,
		totalCPU:   s.totalCPU - o.totalCPU,
		allocBytes: s.allocBytes - o.allocBytes,
		gcFraction: s.gcFraction,
		series:     map[string]float64{},
	}
	for k, v := range s.series {
		d.series[k] = v - o.series[k]
	}
	return d
}

func (s snapshot) gcFrac() float64 {
	if s.totalCPU > 0 {
		return s.gcCPU / s.totalCPU
	}
	return s.gcFraction
}

// self is this process.
type self struct{}

func (self) cpu() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func (self) resetPeak() error    { return resetHWM("/proc/self/clear_refs") }
func (self) peakRSSMiB() float64 { return vmHWM("/proc/self/status") }

func (self) snapshot() snapshot {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return snapshot{gcCPU: val(samples[0]), totalCPU: val(samples[1]), allocBytes: val(samples[2])}
}

// child is another process (raderd), read through /proc and its HTTP
// surfaces.
type child struct {
	pid  int
	base string // raderd URL
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux
// fixes it at 100 for user space.
const clockTicks = 100

func (c child) cpu() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid))
	if err != nil {
		return 0
	}
	// utime and stime are fields 14 and 15 of the line, counted from the
	// pid; the command name in parentheses may itself contain spaces.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(fields[11], 64)
	st, _ := strconv.ParseFloat(fields[12], 64)
	return (ut + st) / clockTicks
}

func (c child) resetPeak() error    { return resetHWM(fmt.Sprintf("/proc/%d/clear_refs", c.pid)) }
func (c child) peakRSSMiB() float64 { return vmHWM(fmt.Sprintf("/proc/%d/status", c.pid)) }

// snapshot reads raderd's Go memory statistics from /debug/vars and its
// service series from /metrics. A failed read yields zeros, which the
// per-layer metrics then show.
func (c child) snapshot() snapshot {
	var snap snapshot
	var vars struct {
		Memstats struct {
			TotalAlloc    float64
			GCCPUFraction float64
		} `json:"memstats"`
	}
	if body, err := httpGet(c.base + "/debug/vars"); err == nil && json.Unmarshal(body, &vars) == nil {
		snap.allocBytes, snap.gcFraction = vars.Memstats.TotalAlloc, vars.Memstats.GCCPUFraction
	}
	if body, err := httpGet(c.base + "/metrics"); err == nil {
		snap.series = parsePrometheus(body)
	}
	return snap
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// parsePrometheus reads a text exposition into series keyed by name and
// label set exactly as exposed, e.g. raderd_jobs_total{state="done"}.
func parsePrometheus(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// resetHWM resets a process's peak resident set size to its current one
// through the process's clear_refs file (Linux 4.0 and later).
func resetHWM(clearRefs string) error {
	if err := os.WriteFile(clearRefs, []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set size: %w", err)
	}
	return nil
}

// vmHWM reads a process's peak resident set size in MiB.
func vmHWM(statusPath string) float64 {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds)), nil
}
