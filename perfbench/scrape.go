package main

import (
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"sublock/lockd"
)

// promSums is a Prometheus text exposition with the per-lock and per-shard
// labels summed away: key "family|label=value,..." → value.
type promSums map[string]float64

// scrapeMetrics reads lockd's /metrics through its MetricsHandler.
func scrapeMetrics(srv *lockd.Server) promSums {
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return parseProm(rec.Body.String())
}

func parseProm(text string) promSums {
	out := promSums{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], strings.TrimSuffix(series[i+1:], "}")
		}
		var keep []string
		for _, kv := range strings.Split(labels, ",") {
			if kv != "" && !strings.HasPrefix(kv, "lock=") && !strings.HasPrefix(kv, "shard=") {
				keep = append(keep, strings.ReplaceAll(kv, `"`, ""))
			}
		}
		out[name+"|"+strings.Join(keep, ",")] += v
	}
	return out
}

// minus returns p − q series by series: the counts of one window.
func (p promSums) minus(q promSums) promSums {
	out := promSums{}
	for k, v := range p {
		out[k] = v - q[k]
	}
	return out
}

// quantile estimates the q-quantile of a power-of-two histogram family,
// interpolating linearly inside the bucket that holds it. It returns 0 for
// an empty histogram.
func (p promSums) quantile(family string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := family + "_bucket|le="
	for k, v := range p {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := math.Inf(1)
		if s := k[len(prefix):]; s != "+Inf" {
			le, _ = strconv.ParseFloat(s, 64)
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum <= 0 {
		return 0
	}
	target := q * bs[len(bs)-1].cum
	lo, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target && b.cum > prevCum {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(target-prevCum)/(b.cum-prevCum)
		}
		lo, prevCum = b.le+1, b.cum
	}
	return lo
}

// heapSampler tracks the peak live heap (as marked by each GC cycle) while
// a window runs. The live heap, unlike the heap in use, does not swing with
// where a sample falls in a GC cycle. Starting it runs a GC, so an earlier
// window's garbage neither counts nor sets the first reading.
type heapSampler struct {
	stopc chan struct{}
	peak  chan uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stopc: make(chan struct{}), peak: make(chan uint64, 1)}
	runtime.GC()
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-hs.stopc:
				hs.peak <- peak
				return
			case <-t.C:
			}
		}
	}()
	return hs
}

// stop ends sampling and returns the peak in bytes.
func (hs *heapSampler) stop() uint64 {
	close(hs.stopc)
	return <-hs.peak
}

// cpuJiffies returns the machine's cumulative steal and total CPU time from
// /proc/stat, in clock ticks; ok is false where it cannot be read. Steal is
// time the hypervisor gave this VM's CPUs to someone else: while it is high,
// every wall-clock number of the run is inflated.
func cpuJiffies() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
