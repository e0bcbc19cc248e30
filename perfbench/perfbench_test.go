package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sublock/lockd"
)

func TestScheduleRepeatsForASeed(t *testing.T) {
	for _, hot := range []bool{false, true} {
		a := schedule(hot, 7, 1, 2, 4000, time.Second)
		b := schedule(hot, 7, 1, 2, 4000, time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("hot=%v: the same seed gave two schedules", hot)
		}
		if reflect.DeepEqual(a, schedule(hot, 8, 1, 2, 4000, time.Second)) {
			t.Fatalf("hot=%v: seeds 7 and 8 gave the same schedule", hot)
		}
		if reflect.DeepEqual(a, schedule(hot, 7, 2, 2, 4000, time.Second)) {
			t.Fatalf("hot=%v: windows 1 and 2 gave the same schedule", hot)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	const rate, d = 4000, 5 * time.Second
	for _, hot := range []bool{false, true} {
		counts := map[string]int{}
		n := 0
		for _, lane := range schedule(hot, 3, 1, 2, rate, d) {
			for i, p := range lane {
				if p.due < 0 || p.due >= d || (i > 0 && p.due < lane[i-1].due) {
					t.Fatalf("hot=%v: due times out of order or range at %d: %v", hot, i, p.due)
				}
				counts[p.name]++
				n++
			}
		}
		if want := rate * d.Seconds(); float64(n) < 0.95*want || float64(n) > 1.05*want {
			t.Errorf("hot=%v: %d passages, want about %.0f", hot, n, want)
		}
		if !hot {
			if len(counts) != n {
				t.Errorf("cold: %d distinct names for %d passages", len(counts), n)
			}
			continue
		}
		top := 0
		for _, c := range counts {
			top = max(top, c)
		}
		if len(counts) > hotNames || 3*top < n {
			t.Errorf("hot: %d names, hottest %d of %d; want <= %d names and >= a third", len(counts), top, n, hotNames)
		}
	}
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(len(xs) - i)
	}
	v, err := percentile(xs, .99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %d, %v; want 990", v, err)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Fatalf("%d samples beyond p99, want >= %d", beyond, minBeyond)
	}
	if _, err := percentile(make([]int64, 999), .99); err == nil {
		t.Fatal("p99 of 999 samples: want an error")
	}
}

// TestReferenceTailsHaveSamples checks the slicing rule: whatever the
// window and rate, every slice a p99 is taken over keeps ten samples beyond
// it, or the window is refused.
func TestReferenceTailsHaveSamples(t *testing.T) {
	for _, c := range []struct {
		rate float64
		d    time.Duration
		ok   bool
	}{{4000, 15 * time.Second, true}, {1300, 3 * time.Second, true}, {4000, 300 * time.Millisecond, true}, {500, time.Second, false}} {
		sched := schedule(true, 1, 1, 2, c.rate, c.d)
		samples := make([][]sample, len(sched))
		for l, lane := range sched {
			for i, p := range lane {
				due := int64(p.due)
				samples[l] = append(samples[l], sample{due: due, sent: due, acquired: due + int64(i%97)*1000,
					relSent: due + 100000, released: due + 150000, ok: true, tried: true})
			}
		}
		wr := &windowRun{samples: samples, stats: summarize(samples)}
		m, err := reference(wr, c.d)
		if (err == nil) != c.ok {
			t.Fatalf("%.0f/s for %v: err %v, want ok=%v", c.rate, c.d, err, c.ok)
		}
		if !c.ok {
			continue
		}
		for i, seg := range segments(samples, c.d, m.segs) {
			if n := len(summarize(seg).acq); n-int(math.Ceil(0.99*float64(n))) < minBeyond {
				t.Errorf("%.0f/s for %v: slice %d of %d has %d samples", c.rate, c.d, i, m.segs, n)
			}
		}
	}
}

func TestCheckGrantsCatchesViolations(t *testing.T) {
	ok := []grant{{acquired: 10, relSent: 20, token: 1}, {acquired: 30, relSent: 40, token: 2}, {acquired: 50, relSent: 60, token: 5}}
	if err := checkGrants("n", append([]grant(nil), ok...)); err != nil {
		t.Fatalf("valid grants rejected: %v", err)
	}
	overlap := append([]grant(nil), ok...)
	overlap[1].acquired = 15 // granted while token 1 was still held
	if err := checkGrants("n", overlap); err == nil || !strings.Contains(err.Error(), "held") {
		t.Fatalf("overlapping holds: err %v, want an overlap error", err)
	}
	stale := append([]grant(nil), ok...)
	stale[2].token = 2 // token did not increase
	if err := checkGrants("n", stale); err == nil || !strings.Contains(err.Error(), "token") {
		t.Fatalf("repeated token: err %v, want a token error", err)
	}
}

func TestCheckWindowCatchesViolations(t *testing.T) {
	sched := [][]passage{{{due: 0, name: "a"}}, {{due: 0, name: "a"}}}
	good := [][]sample{{{acquired: 10, relSent: 20, token: 1, ok: true}}, {{acquired: 30, relSent: 40, token: 2, ok: true}}}
	if err := checkWindow(sched, good, lockd.Stats{}); err != nil {
		t.Fatalf("valid window rejected: %v", err)
	}
	bad := [][]sample{{{acquired: 10, relSent: 40, token: 1, ok: true}}, {{acquired: 30, relSent: 50, token: 2, ok: true}}}
	if err := checkWindow(sched, bad, lockd.Stats{}); err == nil {
		t.Fatal("two lanes holding one name at once: want an error")
	}
	if err := checkWindow(sched, good, lockd.Stats{Expiries: 1}); err == nil {
		t.Fatal("a lease expiry at the long TTL: want an error")
	}
	if err := checkWindow(sched, good, lockd.Stats{FencingRejects: 1}); err == nil {
		t.Fatal("a fencing rejection at the long TTL: want an error")
	}
}

func TestPromQuantile(t *testing.T) {
	p := parseProm(`# TYPE abortable_acquire_ns histogram
abortable_acquire_ns_bucket{lock="shard00",le="0"} 0
abortable_acquire_ns_bucket{lock="shard00",le="1023"} 50
abortable_acquire_ns_bucket{lock="shard00",le="2047"} 100
abortable_acquire_ns_bucket{lock="shard00",le="+Inf"} 100
abortable_acquire_ns_bucket{lock="shard01",le="1023"} 50
abortable_acquire_ns_bucket{lock="shard01",le="2047"} 100
abortable_acquire_ns_bucket{lock="shard01",le="+Inf"} 100
abortable_wait_tier_total{lock="shard00",tier="spin"} 3
abortable_wait_tier_total{lock="shard01",tier="spin"} 4
`)
	if got := p["abortable_wait_tier_total|tier=spin"]; got != 7 {
		t.Errorf("spin total summed over shards = %v, want 7", got)
	}
	if got := p.quantile("abortable_acquire_ns", .5); got < 1000 || got > 1024 {
		t.Errorf("median = %v, want about 1023", got)
	}
	if got := p.quantile("abortable_acquire_ns", .75); got < 1500 || got > 1560 {
		t.Errorf("p75 = %v, want about 1535", got)
	}
	if got := p.quantile("absent_ns", .5); got != 0 {
		t.Errorf("absent family quantile = %v, want 0", got)
	}
}

// TestSmoke runs every workload, untraced and traced, on a tiny budget and
// requires each to pass its correctness checks and report every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads for about a minute")
	}
	t.Setenv("PERFBENCH_OUT", t.TempDir())
	e2e := []string{"acquire_p50_us", "release_p50_us", "max_ok_rate", "cpu_us_per_op", "heap_peak_mb", "setup_s", "explore_s"}
	for _, w := range []string{"svc-cold", "svc-hot", "sim-explore"} {
		for _, traced := range []bool{false, true} {
			o := opts{workload: w, seed: 5, seconds: 2, trace: traced, limit: 50 * time.Millisecond,
				failLimit: 0.001, lanes: 2, steps: 16}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			want := e2e
			if traced {
				want = nil
				for _, m := range perLayer {
					want = append(want, m.name)
				}
			}
			if len(rep.res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(rep.res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := rep.res.Metrics[name]
				if !ok || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w, traced, name, m, ok)
				}
			}
			if rep.res.Attempted < 1 || rep.res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w, traced, rep.res.Attempted, rep.res.Failed)
			}
		}
	}
}
