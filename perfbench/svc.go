package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"sublock/lockd"
	"sublock/lockd/client"
)

// Lease and wait budgets are long enough that nothing expires or times
// out in a run; the server retires idle names after a second, so svc-cold's
// table holds about one second of arrivals instead of growing with the run.
const (
	leaseTTL   = time.Minute
	waitBudget = 30 * time.Second
	idleRetire = time.Second
)

func serverConfig() lockd.Config { return lockd.Config{IdleRetire: idleRetire} }

// stack is one fresh in-process lockd served over loopback HTTP, with one
// lockd/client per lane, each over its own single connection.
type stack struct {
	srv     *lockd.Server
	hs      *http.Server
	served  chan struct{}
	clients []*client.Client
	https   []*http.Client
}

// newStack builds a stack, warms one connection per lane and, for svc-hot,
// the hot names' table entries, and returns the time all of that took.
func newStack(hot bool, lanes int, tr *tracer) (*stack, time.Duration, error) {
	t0 := time.Now()
	srv := lockd.New(serverConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	st := &stack{srv: srv, hs: &http.Server{Handler: tr.handler(srv.Handler())}, served: make(chan struct{})}
	go func() {
		defer close(st.served)
		st.hs.Serve(ln) // returns http.ErrServerClosed at close
	}()
	for l := 0; l < lanes; l++ {
		hc := &http.Client{Transport: tr.transport()}
		st.https = append(st.https, hc)
		st.clients = append(st.clients, client.New("http://"+ln.Addr().String(), client.Config{HTTPClient: hc}))
	}
	warm := func(cl *client.Client, name string) error {
		ls, err := cl.Acquire(context.Background(), name, leaseTTL, waitBudget)
		if err != nil {
			return err
		}
		return cl.Release(context.Background(), ls)
	}
	for l, cl := range st.clients {
		if err := warm(cl, fmt.Sprintf("warm-%d", l)); err != nil {
			st.close()
			return nil, 0, fmt.Errorf("warm lane %d: %w", l, err)
		}
	}
	if hot {
		for k := 0; k < hotNames; k++ {
			if err := warm(st.clients[k%lanes], hotName(k)); err != nil {
				st.close()
				return nil, 0, fmt.Errorf("warm %s: %w", hotName(k), err)
			}
		}
	}
	return st, time.Since(t0), nil
}

// close stops the HTTP server and the lock service and waits for both.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := st.hs.Shutdown(ctx); err != nil {
		st.hs.Close()
	}
	<-st.served
	for _, hc := range st.https {
		hc.CloseIdleConnections()
	}
	st.srv.Close()
}

// sample is one passage as the lane saw it. Times are ns since the window
// start; ok is false for a passage that failed or was never sent.
type sample struct {
	due, sent, acquired, relSent, released int64
	lag                                    int64 // how late the generator sent it
	token                                  uint64
	ok, tried                              bool
}

// spinMargin is how far before a due time the lane stops sleeping and
// yields instead: nanosleep overshoots by tens of µs, a Go timer by up to a
// millisecond.
const spinMargin = 80 * time.Microsecond

// pace returns at start+due: a raw nanosleep for the bulk of the wait, then
// yielding for the last spinMargin.
func pace(start time.Time, due time.Duration) {
	for {
		rem := due - time.Since(start)
		if rem <= 0 {
			return
		}
		if rem > spinMargin {
			ts := syscall.NsecToTimespec(int64(rem - spinMargin))
			syscall.Nanosleep(&ts, nil) // EINTR just re-enters the loop
			continue
		}
		runtime.Gosched()
	}
}

// runWindow runs sched open-loop against st: lane l sends passage i at its
// due time whether or not the system kept up; a passage whose lane is
// still busy goes out as soon as the lane frees; each sample keeps both
// its due and its send time. Passages not sent by cutoff are left unsent.
// In a traced run each passage's spans carry id idBase+i*lanes+l.
func (st *stack) runWindow(sched [][]passage, cutoff time.Duration, tr *tracer, idBase uint64) [][]sample {
	out := make([][]sample, len(sched))
	for l, lane := range sched {
		out[l] = make([]sample, len(lane))
		for i, p := range lane {
			out[l][i].due = int64(p.due)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), cutoff+waitBudget)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }
	for l := range sched {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			cl := st.clients[l]
			var free int64 // when the lane finished its previous passage
			for i, p := range sched[l] {
				s := &out[l][i]
				if time.Since(start) > cutoff {
					break
				}
				pace(start, p.due)
				s.sent = since()
				s.lag = s.sent - max(s.due, free)
				s.tried = true
				pctx, id := ctx, uint64(0)
				if tr != nil {
					id = idBase + uint64(i*len(sched)+l)
					pctx = withPassage(ctx, id)
				}
				ls, err := acquire(pctx, cl, p.name, tr, id)
				s.acquired = since()
				if err == nil {
					s.token = ls.Token
					s.relSent = since()
					err = release(pctx, cl, ls, tr, id)
				}
				s.released = since()
				free = s.released
				s.ok = err == nil
				if s.ok && tr != nil {
					tr.add(id, spanPassage, int64(start.Sub(tr.epoch))+s.due, int64(start.Sub(tr.epoch))+s.released)
				}
			}
		}(l)
	}
	wg.Wait()
	return out
}

// acquire and release call the client, inside a span in a traced run.
func acquire(ctx context.Context, cl *client.Client, name string, tr *tracer, id uint64) (*client.Lease, error) {
	if tr == nil {
		return cl.Acquire(ctx, name, leaseTTL, waitBudget)
	}
	t0 := tr.now()
	ls, err := cl.Acquire(ctx, name, leaseTTL, waitBudget)
	tr.add(id, spanClientAcquire, t0, tr.now())
	return ls, err
}

func release(ctx context.Context, cl *client.Client, ls *client.Lease, tr *tracer, id uint64) error {
	if tr == nil {
		return cl.Release(ctx, ls)
	}
	t0 := tr.now()
	err := cl.Release(ctx, ls)
	tr.add(id, spanClientRelease, t0, tr.now())
	return err
}

// windowStats summarises one window's samples.
type windowStats struct {
	attempted, failed, unsent int
	completed                 int
	// Latencies; a failed or unsent passage counts as failed. acq and rel
	// run from the call's send, due from the passage's due time, so due
	// also holds the wait for a busy lane.
	acq, due, rel, lag []int64
	lastDone           int64
}

func summarize(samples [][]sample) windowStats {
	var w windowStats
	for _, lane := range samples {
		for _, s := range lane {
			w.attempted++
			switch {
			case !s.tried:
				w.unsent++
				w.acq = append(w.acq, failed)
				w.due = append(w.due, failed)
			case !s.ok:
				w.failed++
				w.acq = append(w.acq, failed)
				w.due = append(w.due, failed)
				w.rel = append(w.rel, failed)
			default:
				w.completed++
				w.acq = append(w.acq, s.acquired-s.sent)
				w.due = append(w.due, s.acquired-s.due)
				w.rel = append(w.rel, s.released-s.relSent)
				w.lag = append(w.lag, s.lag)
				w.lastDone = max(w.lastDone, s.released)
			}
		}
	}
	return w
}

// segments splits a window's samples by due time into k equal slices, so
// tail percentiles can be taken per slice and their median reported.
func segments(samples [][]sample, d time.Duration, k int) [][][]sample {
	out := make([][][]sample, k)
	for i := range out {
		out[i] = make([][]sample, len(samples))
	}
	for l, lane := range samples {
		for _, s := range lane {
			i := min(int(s.due*int64(k)/int64(d)), k-1)
			out[i][l] = append(out[i][l], s)
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// svcRun is the shared state of one service workload run.
type svcRun struct {
	hot       bool
	seed      int64
	lanes     int
	limit     time.Duration // acquire p99 limit of the rate ladder
	failLimit float64
	setups    []float64 // seconds per stack set-up
}

// windowRun is one window's raw outcome.
type windowRun struct {
	samples [][]sample
	stats   windowStats
	cpu     time.Duration
	heap    uint64 // peak heap bytes during the window
	server  lockd.Stats
	// Client-side transport counts over the window (traced windows only).
	bytes, dials int64
	// Filled only when the window is scraped (traced runs):
	metrics promSums // lockd's /metrics counts over the window
	mem     memDelta // runtime allocation and GC counts over the window
}

// memDelta is the runtime's allocation and GC work over one window.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
	pause          time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (m memDelta) of(a, b runtime.MemStats) memDelta {
	return memDelta{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC,
		time.Duration(b.PauseTotalNs - a.PauseTotalNs)}
}

// window sets up a fresh stack, runs one window of the seeded schedule on
// it, checks the window's correctness, and tears the stack down.
func (r *svcRun) window(window int, rate float64, d time.Duration, tr *tracer, scrape bool) (*windowRun, error) {
	sched := schedule(r.hot, r.seed, window, r.lanes, rate, d)
	st, setup, err := newStack(r.hot, r.lanes, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	r.setups = append(r.setups, setup.Seconds())
	var before promSums
	var m0 runtime.MemStats
	if scrape {
		before, m0 = scrapeMetrics(st.srv), readMem()
	}
	var b0, d0 int64
	if tr != nil {
		b0, d0 = tr.bytes.Load(), tr.dials.Load()
	}
	hs := startHeapSampler()
	c0 := cpuTime()
	samples := st.runWindow(sched, d+r.limit, tr, uint64(window)<<40)
	wr := &windowRun{samples: samples, cpu: cpuTime() - c0, heap: hs.stop(), server: st.srv.Stats()}
	if tr != nil {
		wr.bytes, wr.dials = tr.bytes.Load()-b0, tr.dials.Load()-d0
	}
	wr.stats = summarize(samples)
	if scrape {
		wr.mem = memDelta{}.of(m0, readMem())
		wr.metrics = scrapeMetrics(st.srv).minus(before)
	}
	if err := checkWindow(sched, samples, wr.server); err != nil {
		return nil, fmt.Errorf("window %d at %.0f/s: %w", window, rate, err)
	}
	return wr, nil
}

// Rate ladder: rung k offers ladderBase·ladderStep^k passages/s.
const (
	ladderBase = 500.0
	ladderStep = 1.05
	ladderTop  = 90 // ≈ 40k passages/s
)

func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// rung is one probed ladder rung.
type rung struct {
	k         int
	stair     bool // probed by the staircase, not the binary search
	pass      bool
	void      bool    // the hypervisor took over stealVoid of the CPU: neither pass nor miss
	steal     float64 // share of the machine's CPU time the hypervisor took during the probe
	p99       float64 // µs from the due time, median over slices of the window
	achieved  float64 // completed passages per second of window
	failRatio float64
}

// perCPU is the probe's completed rate scaled to the machine's whole CPU
// time: at the ladder's boundary the service is CPU-bound, so the share
// the hypervisor took (steal, capped at half) cost it that share of its
// rate.
func (g rung) perCPU() float64 { return g.achieved / (1 - min(g.steal, 0.5)) }

// A probe during which the hypervisor took more than stealVoid of the
// machine's CPU time (/proc/stat steal) is void: it measured the host, not
// the service, so it neither passes nor fails its rung and is run again, at
// most maxVoids times, after which its last run counts as it is.
const (
	stealVoid = 0.05
	maxVoids  = 2
)

// maxOKRate finds the highest ladder rung whose window meets the acquire
// p99 limit, counted from the due time, with failures under failLimit and
// no passage left unsent (a growing generator backlog). A binary search
// over the ladder finds the boundary; a staircase then keeps probing
// around it, one rung up after a pass and one down after a miss, until
// budget is spent; if no probe has passed by then, not even in the search,
// it goes on for up to twice that. The result is the median perCPU rate of
// the staircase's passing probes, so that no single probe, and no single
// host stall, sets it; if none passed in time, the search's highest passing
// probe stands in. A staircase probe runs for d, a search probe for
// half that; rung k always runs the same seeded schedule, whatever path the
// search takes.
func (r *svcRun) maxOKRate(budget, d time.Duration) (rate float64, passes int, probes []rung, err error) {
	start := time.Now()
	over := func() bool { return time.Since(start) >= budget }
	// try probes rung k until a run is not void, after maxVoids re-runs,
	// or once the budget is spent.
	try := func(k int, d time.Duration, stair bool) (rung, error) {
		for i := 0; ; i++ {
			g, err := r.probe(k, d)
			if err != nil {
				return g, err
			}
			g.stair = stair
			probes = append(probes, g)
			if !g.void || i == maxVoids || over() {
				return g, nil
			}
		}
	}
	lo, hi := -1, ladderTop+1
	var found rung // the search's highest passing probe
	for hi-lo > 1 {
		k := (lo + hi) / 2
		g, err := try(k, d/2, false)
		if err != nil {
			return 0, 0, probes, err
		}
		if g.pass {
			lo, found = k, g
		} else {
			hi = k
		}
	}
	var rates []float64
	for k := max(lo, 0); !over() || (lo < 0 && len(rates) == 0 && time.Since(start) < 2*budget); {
		g, err := try(k, d, true)
		if err != nil {
			return 0, 0, probes, err
		}
		if g.pass {
			rates = append(rates, g.perCPU())
			k = min(k+1, ladderTop)
		} else {
			k = max(k-1, 0)
		}
	}
	if len(rates) == 0 && lo >= 0 {
		rates = append(rates, found.perCPU()) // the search ate the staircase's time
	}
	if len(rates) == 0 {
		return 0, 0, probes, errors.New("no ladder rung meets the latency limit")
	}
	return median(rates), len(rates), probes, nil
}

// probe runs rung k for at least d, and long enough for one p99 slice.
func (r *svcRun) probe(k int, d time.Duration) (rung, error) {
	d = max(d, secs(120*minBeyond*1.25/ladderRate(k)))
	s0, t0, ok0 := cpuJiffies()
	wr, err := r.window(100+k, ladderRate(k), d, nil, false)
	if err != nil {
		return rung{}, err
	}
	var steal float64
	if s1, t1, ok1 := cpuJiffies(); ok0 && ok1 && t1 > t0 {
		steal = float64(s1-s0) / float64(t1-t0)
	}
	w := wr.stats
	p99, _, err := sliceP99(wr.samples, d, math.MaxInt, func(w windowStats) []int64 { return w.due })
	if err != nil {
		return rung{}, fmt.Errorf("rung %d: %w", k, err)
	}
	g := rung{k: k, p99: p99, achieved: float64(w.completed) / d.Seconds(),
		failRatio: float64(w.failed+w.unsent) / float64(max(w.attempted, 1)), steal: steal, void: steal > stealVoid}
	g.pass = p99 <= us(int64(r.limit)) && g.failRatio <= r.failLimit && w.unsent == 0
	return g, nil
}

// refMetrics are the end-to-end numbers of one window.
type refMetrics struct {
	acqP50, acqP99, relP50, relP99 float64 // µs from the call's send
	dueP50, dueP99                 float64 // µs of acquire from the due time
	cpuPerOp                       float64 // µs
	heapMB                         float64
	makespan                       float64 // s: window start to last completion
	lagP50, lagP99                 float64 // µs
	failRatio                      float64
	attempted, failed              int
	samples, segs                  int
}

// reference summarises a window. Medians are taken over all of its
// samples; p99s as sliceP99 gives them, over one-second slices.
func reference(wr *windowRun, d time.Duration) (refMetrics, error) {
	w := wr.stats
	m := refMetrics{
		cpuPerOp:  us(int64(wr.cpu)) / float64(max(w.completed, 1)),
		heapMB:    float64(wr.heap) / (1 << 20),
		makespan:  float64(w.lastDone) / 1e9,
		failRatio: float64(w.failed+w.unsent) / float64(max(w.attempted, 1)),
		attempted: w.attempted,
		failed:    w.failed + w.unsent,
		samples:   len(w.acq),
	}
	var err error
	pct := func(xs []int64, p float64) float64 {
		v, e := percentile(xs, p)
		if e != nil && err == nil {
			err = e
		}
		return us(v)
	}
	m.acqP50, m.relP50, m.dueP50 = pct(w.acq, .5), pct(w.rel, .5), pct(w.due, .5)
	m.lagP50, m.lagP99 = pct(w.lag, .5), pct(w.lag, .99)
	if err != nil {
		return m, err
	}
	perSecond := int(d.Seconds() + 0.5)
	if m.acqP99, m.segs, err = sliceP99(wr.samples, d, perSecond, func(w windowStats) []int64 { return w.acq }); err != nil {
		return m, err
	}
	if m.dueP99, _, err = sliceP99(wr.samples, d, perSecond, func(w windowStats) []int64 { return w.due }); err != nil {
		return m, err
	}
	m.relP99, _, err = sliceP99(wr.samples, d, perSecond, func(w windowStats) []int64 { return w.rel })
	return m, err
}

// sliceP99 cuts a window by due time into at most want equal slices, takes
// the p99 of lat per slice and returns the median slice, so one stall burst
// sets no run's tail, and the number of slices. Each slice keeps at least
// 1200 samples, which leaves 12 beyond its p99.
func sliceP99(samples [][]sample, d time.Duration, want int, lat func(windowStats) []int64) (float64, int, error) {
	n := 0
	for _, lane := range samples {
		n += len(lane)
	}
	k := max(1, min(want, n/(120*minBeyond)))
	var p99s []float64
	for _, seg := range segments(samples, d, k) {
		v, err := percentile(lat(summarize(seg)), .99)
		if err != nil {
			return 0, k, err
		}
		p99s = append(p99s, us(v))
	}
	return median(p99s), k, nil
}
