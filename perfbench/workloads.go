package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sublock/internal/harness"
	"sublock/rmr"
)

// perLayer lists every per-layer metric with its unit, in report order. A
// traced run reports all of them; a layer the workload does not run reads 0.
// The two whole-stack tails lead the list: they are reported, not gated,
// because a VM's scheduling stalls set them as much as the code does.
var perLayer = []struct{ name, unit string }{
	{"acquire_p99_us", "us"}, {"release_p99_us", "us"},
	{"load.due_acquire_p50_us", "us"}, {"load.due_acquire_p99_us", "us"},
	{"load.lag_p50_us", "us"}, {"load.lag_p99_us", "us"}, {"load.fail_ratio", "ratio"},
	{"client.acquire_self_us", "us"}, {"client.release_self_us", "us"}, {"client.attempts_per_op", "count"},
	{"http.acquire_rt_us", "us"}, {"http.release_rt_us", "us"}, {"http.wire_us", "us"},
	{"http.bytes_per_op", "B"}, {"http.dials", "count"},
	{"lockd.acquire_handler_p50_us", "us"}, {"lockd.acquire_handler_p99_us", "us"},
	{"lockd.release_handler_p50_us", "us"}, {"lockd.locks_live", "count"}, {"lockd.bytes_per_lock", "B"},
	{"lockd.sheds", "count"}, {"lockd.timeouts", "count"}, {"lockd.expiries", "count"},
	{"lockd.fencing_rejects", "count"},
	{"abortable.acquire_wait_p50_us", "us"}, {"abortable.acquire_wait_p99_us", "us"},
	{"abortable.handoff_p50_us", "us"}, {"abortable.park_wake_p50_us", "us"},
	{"abortable.spins_per_op", "count"}, {"abortable.yields_per_op", "count"}, {"abortable.parks_per_op", "count"},
	{"runtime.allocs_per_op", "count"}, {"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"ledger.pool_ns", "ns"}, {"ledger.server_ns", "ns"}, {"ledger.http_ns", "ns"},
	{"ledger.pool_allocs", "count"}, {"ledger.server_allocs", "count"}, {"ledger.http_allocs", "count"},
	{"explorer.replays", "count"}, {"explorer.visited_hits", "count"}, {"explorer.equivalent", "count"},
	{"explorer.self_s", "s"}, {"rmr.replay_p50_us", "us"},
	{"trace.acquire_p50_overhead_us", "us"}, {"trace.cpu_overhead_us_per_op", "us"},
	{"trace.explore_overhead_s", "s"}, {"trace.acquire_accounted_pct", "%"},
}

// layers returns a report with every per-layer metric at 0 and a setter
// that fills one by name.
func layers() (*report, func(name string, v float64, note string)) {
	rep := newReport()
	units := map[string]string{}
	for _, m := range perLayer {
		rep.res.Metrics[m.name] = metric{0, m.unit}
		units[m.name] = m.unit
	}
	return rep, func(name string, v float64, note string) {
		unit, ok := units[name]
		if !ok {
			panic("perfbench: undeclared per-layer metric " + name)
		}
		rep.set(name, v, unit, note)
	}
}

// runSvc runs svc-cold or svc-hot: untraced, the rate ladder then the
// reference-rate window; traced, an untraced and a traced reference window
// on the same schedule, the table's per-name cost and (svc-hot) the ledger.
func runSvc(o opts, tr *tracer) (*report, error) {
	r := &svcRun{hot: o.workload == "svc-hot", seed: o.seed, lanes: o.lanes, limit: o.limit, failLimit: o.failLimit}
	rate := refRates[o.workload]
	if tr != nil {
		return r.traced(o, rate, tr)
	}
	rep := newReport()
	best, passes, probes, err := r.maxOKRate(secs(0.65*o.seconds), secs(max(0.25, 0.035*o.seconds)))
	for i, p := range probes {
		p99 := fmt.Sprintf("%.0fus", p.p99)
		if p.p99 >= us(failed) {
			p99 = "failed" // over 1% of the rung's passages failed or went unsent
		}
		phase := "search"
		if p.stair {
			phase = "stair"
		}
		rep.note(fmt.Sprintf("ladder.%02d.%s.rung%02d", i, phase, p.k), ladderRate(p.k), "1/s",
			fmt.Sprintf("offered; p99 %s fail %.4f achieved %.0f/s steal %.1f%% pass=%v void=%v",
				p99, p.failRatio, p.achieved, 100*p.steal, p.pass, p.void))
	}
	if err != nil {
		return rep, err
	}
	refD := secs(0.3 * o.seconds)
	wr, err := r.window(1, rate, refD, nil, false)
	if err != nil {
		return rep, err
	}
	m, err := reference(wr, refD)
	if err != nil {
		return rep, err
	}
	rep.res.Attempted, rep.res.Failed = m.attempted, m.failed
	at := fmt.Sprintf("at %.0f/s, %d samples", rate, m.samples)
	tail := fmt.Sprintf(", median of %d one-second slices", m.segs)
	rep.set("acquire_p50_us", m.acqP50, "us", "from send, "+at)
	rep.note("acquire_p99_us", m.acqP99, "us", "from send, "+at+tail+"; not gated")
	rep.set("release_p50_us", m.relP50, "us", "from send, "+at)
	rep.note("release_p99_us", m.relP99, "us", "from send, "+at+tail+"; not gated")
	rep.set("max_ok_rate", best, "1/s", fmt.Sprintf("median of %d passing staircase probes' completed rates over 1-steal, p99 limit %v from the due time", passes, o.limit))
	rep.set("cpu_us_per_op", m.cpuPerOp, "us", "process CPU per passage "+at)
	rep.set("heap_peak_mb", m.heapMB, "MB", "peak live heap during the reference window")
	rep.set("setup_s", median(r.setups), "s", fmt.Sprintf("median of %d stack set-ups", len(r.setups)))
	rep.set("explore_s", m.makespan, "s", "reference schedule served: window start to last completion")
	rep.note("fail_ratio", m.failRatio, "ratio", "sheds, timeouts, transport errors, fenced releases, unsent")
	rep.note("load.due_acquire_p50_us", m.dueP50, "us", "acquire from due time, incl. waiting for a busy lane")
	rep.note("load.due_acquire_p99_us", m.dueP99, "us", "acquire from due time"+tail)
	rep.note("load.lag_p50_us", m.lagP50, "us", "generator lateness")
	rep.note("load.lag_p99_us", m.lagP99, "us", "generator lateness")
	if m.failRatio > o.failLimit {
		return rep, fmt.Errorf("fail ratio %.4f at the reference rate exceeds %.4f", m.failRatio, o.failLimit)
	}
	return rep, nil
}

func (r *svcRun) traced(o opts, rate float64, tr *tracer) (*report, error) {
	rep, set := layers()
	d := secs(0.35 * o.seconds)
	base, err := r.window(1, rate, d, nil, true)
	if err != nil {
		return rep, err
	}
	bm, err := reference(base, d)
	if err != nil {
		return rep, err
	}
	traced, err := r.window(1, rate, d, tr, false)
	if err != nil {
		return rep, err
	}
	tm, err := reference(traced, d)
	if err != nil {
		return rep, err
	}
	rep.res.Attempted, rep.res.Failed = bm.attempted+tm.attempted, bm.failed+tm.failed

	set("acquire_p99_us", bm.acqP99, "untraced window, from send")
	set("release_p99_us", bm.relP99, "untraced window, from send")
	set("load.due_acquire_p50_us", bm.dueP50, "untraced window, acquire from due time")
	set("load.due_acquire_p99_us", bm.dueP99, "untraced window, acquire from due time")
	set("load.lag_p50_us", bm.lagP50, "untraced window")
	set("load.lag_p99_us", bm.lagP99, "untraced window")
	set("load.fail_ratio", bm.failRatio, "untraced window")

	l := breakdown(tr.snapshot())
	done := float64(max(traced.stats.completed, 1))
	set("client.acquire_self_us", us(int64(p50(l.clientAcqSelf))), "client call minus its HTTP attempts, p50")
	set("client.release_self_us", us(int64(p50(l.clientRelSelf))), "")
	set("client.attempts_per_op", float64(l.attempts)/float64(max(l.calls, 1)), "HTTP attempts per client call")
	set("http.acquire_rt_us", us(int64(p50(l.httpAcq))), "RoundTrip to body closed, p50")
	set("http.release_rt_us", us(int64(p50(l.httpRel))), "")
	set("http.wire_us", us(int64(p50(l.wire))), "attempt minus handler, p50 over both calls")
	set("http.bytes_per_op", float64(traced.bytes)/done, "client-side bytes read+written per passage")
	set("http.dials", float64(traced.dials), "dials during the traced window")
	set("lockd.acquire_handler_p50_us", us(int64(p50(l.handlerAcq))), "")
	hp99, err := percentile(l.handlerAcq, .99)
	if err != nil {
		return rep, fmt.Errorf("acquire handler: %w", err)
	}
	set("lockd.acquire_handler_p99_us", us(hp99), "")
	set("lockd.release_handler_p50_us", us(int64(p50(l.handlerRel))), "")
	set("lockd.locks_live", float64(base.server.Locks), "at the end of the untraced window")
	bpl, err := bytesPerLock(2000)
	if err != nil {
		return rep, fmt.Errorf("bytes per lock: %w", err)
	}
	set("lockd.bytes_per_lock", bpl, "live heap per idle entry, 2000 names")
	sv := base.server
	set("lockd.sheds", float64(sv.Sheds+sv.GlobalSheds), "untraced window")
	set("lockd.timeouts", float64(sv.Timeouts), "")
	set("lockd.expiries", float64(sv.Expiries+traced.server.Expiries), "both windows")
	set("lockd.fencing_rejects", float64(sv.FencingRejects+traced.server.FencingRejects), "both windows")

	pm := base.metrics
	acquires := math.Max(pm["abortable_passages_total|result=acquired"], 1)
	set("abortable.acquire_wait_p50_us", pm.quantile("abortable_acquire_ns", .5)/1e3, "scraped /metrics, untraced window")
	set("abortable.acquire_wait_p99_us", pm.quantile("abortable_acquire_ns", .99)/1e3, "")
	set("abortable.handoff_p50_us", pm.quantile("abortable_handoff_ns", .5)/1e3, "")
	set("abortable.park_wake_p50_us", pm.quantile("abortable_park_wait_ns", .5)/1e3, "")
	set("abortable.spins_per_op", pm["abortable_wait_tier_total|tier=spin"]/acquires, "")
	set("abortable.yields_per_op", pm["abortable_wait_tier_total|tier=yield"]/acquires, "")
	set("abortable.parks_per_op", pm["abortable_wait_tier_total|tier=park"]/acquires, "")

	bdone := float64(max(base.stats.completed, 1))
	set("runtime.allocs_per_op", float64(base.mem.mallocs)/bdone, "untraced window, whole process")
	set("runtime.alloc_bytes_per_op", float64(base.mem.bytes)/bdone, "")
	set("runtime.gc_cycles", float64(base.mem.gcs), "")
	set("runtime.gc_pause_ms", float64(base.mem.pause)/1e6, "")

	if r.hot {
		pool, server, http, err := ledger(secs(0.03 * o.seconds))
		if err != nil {
			return rep, fmt.Errorf("ledger: %w", err)
		}
		share := func(row ledgerRow) string { return fmt.Sprintf("%.1f%% of the HTTP round trip", 100*row.ns/http.ns) }
		set("ledger.pool_ns", pool.ns, "HandlePool EnterContext+Release, "+share(pool))
		set("ledger.server_ns", server.ns, "lockd.Server Acquire+Release, "+share(server))
		set("ledger.http_ns", http.ns, "lockd/client Acquire+Release over loopback")
		set("ledger.pool_allocs", pool.allocs, "")
		set("ledger.server_allocs", server.allocs, "")
		set("ledger.http_allocs", http.allocs, "")
	}

	set("trace.acquire_p50_overhead_us", tm.acqP50-bm.acqP50, fmt.Sprintf("traced %.1f - untraced %.1f", tm.acqP50, bm.acqP50))
	set("trace.cpu_overhead_us_per_op", tm.cpuPerOp-bm.cpuPerOp, fmt.Sprintf("traced %.1f - untraced %.1f", tm.cpuPerOp, bm.cpuPerOp))
	accounted := p50(l.clientAcqSelf) + p50(l.wireAcq) + p50(l.handlerAcq)
	set("trace.acquire_accounted_pct", 100*accounted/math.Max(p50(l.clientAcq), 1),
		fmt.Sprintf("client self %.1f + wire %.1f + handler %.1f of client acquire %.1f us (p50s)",
			p50(l.clientAcqSelf)/1e3, p50(l.wireAcq)/1e3, p50(l.handlerAcq)/1e3, p50(l.clientAcq)/1e3))
	return rep, nil
}

// simSetups is how many explorer set-ups sim-explore times.
const simSetups = 15

// replayChunk is how many consecutive replays one percentile of replay
// times is taken over; the median over chunks is reported, like the
// one-second slices of a service window.
const replayChunk = 20000

// chunked returns, in µs, the median over consecutive replayChunk-sized
// runs of xs of each run's p-quantile (a short tail is folded into the
// last run).
func chunked(xs []int64, p float64) (float64, error) {
	var qs []float64
	for i := 0; i < len(xs); i += replayChunk {
		end := i + replayChunk
		if len(xs)-end < replayChunk {
			end = len(xs)
		}
		v, err := percentile(append([]int64(nil), xs[i:end]...), p)
		if err != nil {
			return 0, err
		}
		qs = append(qs, us(v))
		if end == len(xs) {
			break
		}
	}
	return median(qs), nil
}

// runSim runs sim-explore: untraced, repeated harness.Explore calls plus one
// exploration with each replay timed; traced, pairs of an untraced and a
// traced exploration.
func runSim(o opts, tr *tracer) (*report, error) {
	cfg := exploreConfig()
	cfg.MaxSteps = o.steps
	if tr != nil {
		return tracedSim(cfg, o.seconds, tr)
	}
	rep := newReport()

	var setups []float64
	one := cfg
	one.MaxSchedules = 1
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		if _, err := harness.Explore(one); err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var first rmr.Result
	var times, heaps []float64
	var cpu time.Duration
	budget := 0.6 * o.seconds
	for start := time.Now(); len(times) == 0 || time.Since(start).Seconds()+times[len(times)-1] <= budget; {
		hs := startHeapSampler()
		c0 := cpuTime()
		t0 := time.Now()
		res, err := harness.Explore(cfg)
		times = append(times, time.Since(t0).Seconds())
		cpu += cpuTime() - c0
		heaps = append(heaps, float64(hs.stop())/(1<<20))
		if err := checkExplore(res, err); err != nil {
			return rep, err
		}
		if len(times) == 1 {
			first = res
		} else if !sameTree(first, res) {
			return rep, fmt.Errorf("exploration %d differs from the first: %+v vs %+v", len(times), res, first)
		}
	}
	wres, rt, err := wrapped(cfg, nil, 0)
	if err := checkExplore(wres, err); err != nil {
		return rep, err
	}
	if !sameTree(first, wres) {
		return rep, errors.New("the timed exploration covered a different tree than harness.Explore")
	}

	replay, between := rt.durations()
	var q [4]float64
	for i, x := range []struct {
		xs []int64
		p  float64
	}{{replay, .5}, {replay, .99}, {between, .5}, {between, .99}} {
		if q[i], err = chunked(x.xs, x.p); err != nil {
			return rep, err
		}
	}
	explore := median(append([]float64(nil), times...))
	n := first.Replays()
	rep.res.Attempted = n
	per := fmt.Sprintf(", median over runs of %d replays", replayChunk)
	rep.set("acquire_p50_us", q[0], "us", fmt.Sprintf("one replay of the body (simulated acquires and releases), %d replays", n)+per)
	rep.note("acquire_p99_us", q[1], "us", "one replay"+per+"; not gated")
	rep.set("release_p50_us", q[2], "us", "explorer time before each replay"+per)
	rep.note("release_p99_us", q[3], "us", "explorer time before each replay"+per+"; not gated")
	rep.set("max_ok_rate", float64(n)/explore, "1/s", "replays per second of exploration")
	rep.set("cpu_us_per_op", us(int64(cpu))/float64(n*len(times)), "us", "process CPU per replay")
	rep.set("heap_peak_mb", median(heaps), "MB", "peak live heap of an exploration, median over explorations")
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d explorer set-ups to the first replay", simSetups))
	rep.set("explore_s", explore, "s", fmt.Sprintf("median of %d explorations of %d replays (%d explored, %d visited hits, %d equivalent)",
		len(times), n, first.Explored, first.VisitedHits, first.Equivalent))
	rep.note("fail_ratio", 0, "ratio", "violations per replay")
	return rep, nil
}

func tracedSim(cfg harness.ExploreConfig, seconds float64, tr *tracer) (*report, error) {
	rep, set := layers()
	// Pairs of one untraced and one traced exploration fill the run; the
	// overhead is the median pair's difference, the layer counts come from
	// the first traced exploration's spans.
	var overheads []float64
	var res rmr.Result
	var rt *replayTimes
	for start := time.Now(); len(overheads) == 0 || time.Since(start).Seconds() < 0.5*seconds; {
		t0 := time.Now()
		base, err := harness.Explore(cfg)
		untraced := time.Since(t0).Seconds()
		if err := checkExplore(base, err); err != nil {
			return rep, err
		}
		t := tr
		if len(overheads) > 0 {
			t = newTracer() // later pairs only time the traced path
		}
		t0 = time.Now()
		r, times, err := wrapped(cfg, t, uint64(len(overheads)+1))
		overheads = append(overheads, time.Since(t0).Seconds()-untraced)
		if err := checkExplore(r, err); err != nil {
			return rep, err
		}
		if !sameTree(base, r) {
			return rep, errors.New("the traced exploration covered a different tree than harness.Explore")
		}
		if rt == nil {
			res, rt = r, times
		}
		rep.res.Attempted += base.Replays() + r.Replays()
	}
	var explore float64
	var replays []int64
	for _, s := range tr.snapshot() {
		switch s.kind {
		case spanExplore:
			explore = float64(s.end - s.start)
		case spanReplay:
			replays = append(replays, s.end-s.start)
		}
	}
	var sum int64
	for _, d := range replays {
		sum += d
	}
	replay, between := rt.durations()
	p99r, err := chunked(replay, .99)
	if err != nil {
		return rep, err
	}
	p99b, err := chunked(between, .99)
	if err != nil {
		return rep, err
	}
	set("acquire_p99_us", p99r, "one replay, traced exploration")
	set("release_p99_us", p99b, "explorer time before each replay, traced exploration")
	set("explorer.replays", float64(res.Replays()), "")
	set("explorer.visited_hits", float64(res.VisitedHits), "")
	set("explorer.equivalent", float64(res.Equivalent), "")
	set("explorer.self_s", (explore-float64(sum))/1e9, "explore span minus its replay spans")
	set("rmr.replay_p50_us", us(int64(p50(replays))), "")
	set("trace.explore_overhead_s", median(overheads), fmt.Sprintf("traced minus untraced explore_s, median of %d pairs", len(overheads)))
	return rep, nil
}
