// Package lockd is a sharded lock service over the native abortable lock:
// millions of named locks served over HTTP/JSON, hardened against client
// failure. Every acquire returns a lease — a TTL plus a monotonically
// increasing fencing token per name — so a holder that crashes or
// partitions loses the lock at lease expiry and its stale release is
// rejected by token comparison. Acquire waits are bounded-abortable end to
// end: the request context (cancelled by the client, by its disconnect, or
// by server drain) feeds straight into abortable.EnterContext, so a
// vanished waiter is reaped within the paper's bounded abort budget
// instead of leaking a goroutine.
//
// Robustness mechanisms, in the order a request meets them:
//
//   - a global in-flight gate and a per-shard waiter budget shed excess
//     load with 503 + Retry-After instead of an unbounded goroutine pileup;
//   - names hash (fnv-1a) onto striped shards; each live name keeps only
//     its lease state (about 150 B) and borrows an abortable.Lock +
//     HandlePool (about 4.3 KB) from a server-wide pool of quiescent lock
//     sets while it is in use or held, and idle entries are retired (idle
//     TTL plus an LRU cap), so millions of names stay memory-bounded;
//   - a per-shard expiry sweeper reclaims leases from crashed holders;
//     fencing tokens are drawn from a per-shard monotonic counter, so a
//     token stays comparable across retire/re-create of its name;
//   - Drain stops new acquires, aborts every parked waiter via context
//     cancellation, and waits for in-flight requests under a caller-set
//     deadline.
//
// See docs/LOCKD.md for the API, the lease/fencing semantics, and the
// failure matrix.
package lockd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sublock/abortable"
	"sublock/abortable/obs"
)

// Defaults for Config fields left zero.
const (
	DefaultShards            = 16
	DefaultPoolSize          = 8
	DefaultShardWaiterBudget = 1024
	DefaultMaxInFlight       = 8192
	DefaultTTL               = 10 * time.Second
	DefaultMaxTTL            = time.Minute
	DefaultWait              = 5 * time.Second
	DefaultMaxWait           = 30 * time.Second
	DefaultSweepInterval     = 100 * time.Millisecond
	DefaultIdleRetire        = time.Minute
	DefaultMaxLocksPerShard  = 1 << 17
	DefaultRetryAfter        = time.Second
	DefaultWriteTimeout      = 5 * time.Second
)

// Config tunes a Server. The zero value selects the defaults above.
type Config struct {
	// Shards is the number of lock-table stripes. More shards mean less
	// map contention and finer-grained sweepers.
	Shards int
	// PoolSize is the number of abortable handles per named lock: the cap
	// on waiters queued *inside* one lock's doorway. Excess acquirers
	// queue on the handle pool (still context-abortable), so a hot name
	// degrades to FIFO-ish borrow order instead of failing.
	PoolSize int
	// ShardWaiterBudget caps in-flight acquires per shard; excess is shed
	// with 503 + Retry-After. This bounds waiter memory under overload.
	ShardWaiterBudget int
	// MaxInFlight caps in-flight acquire requests across all shards.
	MaxInFlight int
	// TTL is the lease duration used when a request asks for none;
	// MaxTTL clamps requested durations.
	TTL, MaxTTL time.Duration
	// Wait is the acquire wait budget used when a request asks for none;
	// MaxWait clamps requested budgets.
	Wait, MaxWait time.Duration
	// SweepInterval paces each shard's expiry/retirement sweeper.
	SweepInterval time.Duration
	// IdleRetire retires a name's lock after this long unheld and
	// unreferenced, keeping the table bounded by the live working set.
	IdleRetire time.Duration
	// MaxLocksPerShard is the hard cap on live names per shard: at the
	// cap, creating a new name evicts the least-recently-used idle entry,
	// or sheds with 503 when every entry is held or in use.
	MaxLocksPerShard int
	// RetryAfter is the hint returned with 503 responses.
	RetryAfter time.Duration
	// WriteTimeout bounds each HTTP response write, so a slow or stalled
	// client cannot pin a handler goroutine.
	WriteTimeout time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	defD := func(v *time.Duration, d time.Duration) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.Shards, DefaultShards)
	def(&c.PoolSize, DefaultPoolSize)
	def(&c.ShardWaiterBudget, DefaultShardWaiterBudget)
	def(&c.MaxInFlight, DefaultMaxInFlight)
	defD(&c.TTL, DefaultTTL)
	defD(&c.MaxTTL, DefaultMaxTTL)
	defD(&c.Wait, DefaultWait)
	defD(&c.MaxWait, DefaultMaxWait)
	defD(&c.SweepInterval, DefaultSweepInterval)
	defD(&c.IdleRetire, DefaultIdleRetire)
	def(&c.MaxLocksPerShard, DefaultMaxLocksPerShard)
	defD(&c.RetryAfter, DefaultRetryAfter)
	defD(&c.WriteTimeout, DefaultWriteTimeout)
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Sentinel errors returned by the service layer; the HTTP layer maps them
// to status codes and machine-readable codes (see http.go), the client
// maps those back.
var (
	// ErrOverloaded: the global gate or a shard's waiter budget is full.
	ErrOverloaded = errors.New("lockd: overloaded, retry later")
	// ErrTableFull: the shard is at its lock-table cap with nothing
	// evictable (every entry held or in use).
	ErrTableFull = errors.New("lockd: lock table full, retry later")
	// ErrDraining: the server is shutting down.
	ErrDraining = errors.New("lockd: draining")
	// ErrWaitTimeout: the acquire wait budget elapsed before the grant.
	ErrWaitTimeout = errors.New("lockd: wait budget elapsed")
	// ErrStale: the release/renew token does not match the current lease
	// — the fencing rejection.
	ErrStale = errors.New("lockd: stale fencing token")
	// ErrExpired: the token matched but the lease had already expired;
	// the lock was (or is now) reclaimed.
	ErrExpired = errors.New("lockd: lease expired")
	// ErrUnknown: no live lock under that name (never held, or retired).
	ErrUnknown = errors.New("lockd: unknown lock")
	// ErrBadName: empty or oversized lock name.
	ErrBadName = errors.New("lockd: invalid lock name")
)

// MaxNameLen bounds lock names; longer names are rejected, not truncated.
const MaxNameLen = 512

// Lease is a granted acquisition: the holder owns name until Expiry
// unless renewed, and must present Token to release or renew. Tokens are
// monotonically increasing per name — a downstream resource that records
// the largest token it has seen can fence out writes from stale holders.
type Lease struct {
	Name   string
	Token  uint64
	TTL    time.Duration
	Expiry time.Time
}

// lockSet is the mutual-exclusion half of a named lock: the abortable
// lock and the handle pool that queue its waiters. Sets are not owned by
// names. An entry borrows one from Server.sets while it is pinned or held
// and gives it back when it goes idle, so a set is always quiescent when
// it moves between names: every handle is back in the pool, nobody is in
// the doorway, and nobody holds the lock.
type lockSet struct {
	lock *abortable.Lock
	pool *abortable.HandlePool
}

// entry is one live named lock: the lease state, resident for as long as
// the name is in the table, and the lock set, attached only while the
// entry is pinned or held. refs counts the pins of in-flight requests
// (retirement is refused while it is nonzero); lastUse drives idle
// retirement and LRU eviction.
//
// Invariant: an entry that is held, or pinned by an acquire, has a set;
// the set leaves only when the entry is unpinned and unheld. set is
// written only under shard.mu then mu, so either lock suffices to read
// it, and so does a pin that needs it.
type entry struct {
	name    string
	refs    atomic.Int64
	lastUse atomic.Int64 // unix nanos

	mu     sync.Mutex // guards the lease fields below
	held   bool
	token  uint64
	expiry time.Time
	handle *abortable.Handle // the handle holding the lock while held
	set    *lockSet
}

func (e *entry) touch(now time.Time) { e.lastUse.Store(now.UnixNano()) }

// idle reports whether the entry is unpinned and unheld, the condition for
// retiring it. Both are read under mu, where the sweeper pins an expired
// entry before clearing held.
func (e *entry) idle() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.refs.Load() == 0 && !e.held
}

// shard is one stripe of the lock table, with its own fencing counter,
// waiter budget, sweeper, and metrics. Lock order: shard.mu before
// entry.mu; nothing takes shard.mu while holding an entry.mu.
type shard struct {
	id       int
	entries  map[string]*entry
	attached int // entries holding a lock set; guarded by mu
	mu       sync.Mutex

	fence   atomic.Uint64 // monotonic fencing-token source (per shard)
	waiting atomic.Int64  // in-flight acquires (budget usage)
	held    atomic.Int64  // currently held leases

	acquires       atomic.Int64
	timeouts       atomic.Int64
	sheds          atomic.Int64
	expiries       atomic.Int64
	fencingRejects atomic.Int64
	releases       atomic.Int64
	renews         atomic.Int64
	retired        atomic.Int64

	met *obs.Metrics // shared by every lock set attached in this shard
}

// Server is the lock service. Create with New, serve the Handler, and
// shut down with Drain then Close.
type Server struct {
	cfg    Config
	shards []*shard
	sets   sync.Pool // *lockSet, quiescent and detached; the GC trims it

	inflight    atomic.Int64
	globalSheds atomic.Int64
	draining    atomic.Bool

	drainCtx    context.Context
	drainCancel context.CancelFunc

	obsReg    *obs.Registry
	sweepStop chan struct{}
	sweepDone sync.WaitGroup
	closeOnce sync.Once
	start     time.Time
}

// New creates a Server and starts its per-shard expiry sweepers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		obsReg:    obs.NewRegistry(),
		sweepStop: make(chan struct{}),
		start:     cfg.now(),
	}
	s.sets.New = func() any {
		lk := abortable.New(abortable.Config{MaxHandles: cfg.PoolSize})
		pool, err := abortable.NewHandlePool(lk, cfg.PoolSize)
		if err != nil {
			panic(err) // unreachable: the lock admits exactly PoolSize handles
		}
		return &lockSet{lock: lk, pool: pool}
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	for i := range s.shards {
		m := obs.New(fmt.Sprintf("shard%02d", i), obs.Config{})
		s.obsReg.MustRegister(m)
		s.shards[i] = &shard{id: i, entries: map[string]*entry{}, met: m}
	}
	s.sweepDone.Add(1)
	go s.sweeper()
	return s
}

// Close stops the sweepers. It does not drain; call Drain first for a
// graceful shutdown. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.drainCancel() // release any stragglers even if Drain was skipped
		close(s.sweepStop)
	})
	s.sweepDone.Wait()
}

// Drain gracefully shuts the service down: new acquires are shed with
// ErrDraining, every waiter parked in an acquire is aborted via context
// cancellation (the paper's bounded abort, so the reap is prompt), and
// Drain returns once no request is in flight — or ctx's deadline expires
// first, in which case the deadline error is returned with whatever
// in-flight count remains. Held leases are not revoked; their holders are
// expected to fail over and let the leases lapse.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainCancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if s.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("lockd: drain deadline with %d request(s) in flight: %w",
				s.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// shardOf maps a name onto its stripe with 32-bit FNV-1a, computed in
// place so that hashing neither allocates nor copies the name.
func (s *Server) shardOf(name string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return s.shards[h%uint32(len(s.shards))]
}

func checkName(name string) error {
	if name == "" || len(name) > MaxNameLen {
		return ErrBadName
	}
	return nil
}

// clamp returns v bounded into (0, max], substituting def for zero.
func clamp(v, def, max time.Duration) time.Duration {
	if v <= 0 {
		v = def
	}
	if v > max {
		v = max
	}
	return v
}

// Acquire obtains the named lock, blocking until granted or until ctx is
// cancelled, wait elapses, or the server drains. A zero ttl or wait
// selects the configured default; both are clamped to their maxima. On
// success the returned lease is held until released with its token,
// renewed, or reclaimed at expiry.
func (s *Server) Acquire(ctx context.Context, name string, ttl, wait time.Duration) (Lease, error) {
	if err := checkName(name); err != nil {
		return Lease{}, err
	}
	if s.draining.Load() {
		return Lease{}, ErrDraining
	}
	// Global in-flight gate: shed rather than queue without bound.
	if s.inflight.Add(1) > int64(s.cfg.MaxInFlight) {
		s.inflight.Add(-1)
		s.globalSheds.Add(1)
		return Lease{}, ErrOverloaded
	}
	defer s.inflight.Add(-1)

	sh := s.shardOf(name)
	if sh.waiting.Add(1) > int64(s.cfg.ShardWaiterBudget) {
		sh.waiting.Add(-1)
		sh.sheds.Add(1)
		return Lease{}, ErrOverloaded
	}
	defer sh.waiting.Add(-1)

	e, err := s.entryFor(sh, name)
	if err != nil {
		sh.sheds.Add(1)
		return Lease{}, err
	}
	defer func() {
		e.touch(s.cfg.now())
		s.unpin(sh, e)
	}()

	ttl = clamp(ttl, s.cfg.TTL, s.cfg.MaxTTL)
	wait = clamp(wait, s.cfg.Wait, s.cfg.MaxWait)

	// The wait context merges three abort sources: the caller's context
	// (client cancel or disconnect), the wait budget, and server drain.
	// All three funnel into abortable.EnterContext, so a parked waiter is
	// unparked and reaped within the bounded abort budget.
	actx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	stop := context.AfterFunc(s.drainCtx, cancel)
	defer stop()

	h, err := e.set.pool.EnterContext(actx)
	if err != nil {
		switch {
		case s.draining.Load():
			return Lease{}, ErrDraining
		case ctx.Err() != nil:
			return Lease{}, ctx.Err() // client cancelled or disconnected
		default:
			sh.timeouts.Add(1)
			return Lease{}, ErrWaitTimeout
		}
	}

	now := s.cfg.now()
	tok := sh.fence.Add(1)
	e.mu.Lock()
	e.held = true
	e.token = tok
	e.expiry = now.Add(ttl)
	e.handle = h
	e.mu.Unlock()
	sh.held.Add(1)
	sh.acquires.Add(1)
	return Lease{Name: name, Token: tok, TTL: ttl, Expiry: now.Add(ttl)}, nil
}

// Release gives the named lock up. The token must match the current
// lease: a stale token — an earlier holder whose lease expired and was
// reclaimed, or a duplicate release — is rejected with ErrStale. A
// matching token on an already-expired lease reclaims the lock
// immediately but still reports ErrExpired, so a holder that outlived its
// lease learns it may have lost mutual exclusion.
func (s *Server) Release(name string, token uint64) error {
	e, sh, err := s.liveEntry(name)
	if err != nil {
		return err
	}
	defer func() {
		e.touch(s.cfg.now())
		s.unpin(sh, e)
	}()
	e.mu.Lock()
	if !e.held || e.token != token {
		e.mu.Unlock()
		sh.fencingRejects.Add(1)
		return ErrStale
	}
	h, ls := e.handle, e.set
	expired := s.cfg.now().After(e.expiry)
	e.held = false
	e.handle = nil
	e.mu.Unlock()
	sh.held.Add(-1)
	ls.pool.Release(h)
	if expired {
		sh.expiries.Add(1)
		sh.fencingRejects.Add(1)
		return ErrExpired
	}
	sh.releases.Add(1)
	return nil
}

// Renew extends the current lease by ttl from now. The token must match
// and the lease must not have expired.
func (s *Server) Renew(name string, token uint64, ttl time.Duration) (Lease, error) {
	ttl = clamp(ttl, s.cfg.TTL, s.cfg.MaxTTL)
	e, sh, err := s.liveEntry(name)
	if err != nil {
		return Lease{}, err
	}
	defer func() {
		e.touch(s.cfg.now())
		s.unpin(sh, e)
	}()
	now := s.cfg.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.held || e.token != token {
		sh.fencingRejects.Add(1)
		return Lease{}, ErrStale
	}
	if now.After(e.expiry) {
		// Expired but not yet swept: leave the reclaim to the sweeper (or
		// a release); the renew just fails.
		sh.fencingRejects.Add(1)
		return Lease{}, ErrExpired
	}
	e.expiry = now.Add(ttl)
	sh.renews.Add(1)
	return Lease{Name: name, Token: token, TTL: ttl, Expiry: e.expiry}, nil
}

// Info is one name's Inspect snapshot.
type Info struct {
	Name    string
	Held    bool
	Token   uint64        // current lease token, when held
	Remain  time.Duration // lease time remaining, when held
	Waiters int64         // acquires currently in flight on the shard
}

// Inspect reports the named lock's state; ok is false for unknown names.
func (s *Server) Inspect(name string) (Info, bool) {
	e, sh, err := s.liveEntry(name)
	if err != nil {
		return Info{}, false
	}
	defer s.unpin(sh, e)
	e.mu.Lock()
	info := Info{Name: name, Held: e.held, Waiters: sh.waiting.Load()}
	if e.held {
		info.Token = e.token
		info.Remain = e.expiry.Sub(s.cfg.now())
	}
	e.mu.Unlock()
	return info, true
}

// liveEntry pins the existing entry for name (the caller must unpin) or
// reports ErrUnknown/ErrBadName. The pin attaches no lock set: Release
// uses the set only of a held entry, which has one.
func (s *Server) liveEntry(name string) (*entry, *shard, error) {
	if err := checkName(name); err != nil {
		return nil, nil, err
	}
	sh := s.shardOf(name)
	sh.mu.Lock()
	e := sh.entries[name]
	if e == nil {
		sh.mu.Unlock()
		return nil, nil, ErrUnknown
	}
	e.refs.Add(1)
	sh.mu.Unlock()
	return e, sh, nil
}

// entryFor pins the entry for name, creating it if absent, and attaches
// a lock set from the server's pool if the entry has none. At the
// lock-table cap it evicts the least-recently-used idle entry; with
// nothing evictable the create is shed with ErrTableFull.
func (s *Server) entryFor(sh *shard, name string) (*entry, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[name]
	if e == nil {
		if len(sh.entries) >= s.cfg.MaxLocksPerShard && !sh.evictLRU() {
			return nil, ErrTableFull
		}
		e = &entry{name: name}
		e.touch(s.cfg.now())
		sh.entries[name] = e
	}
	e.refs.Add(1)
	if e.set == nil {
		ls := s.sets.Get().(*lockSet)
		ls.lock.SetObserver(sh.met) // the set may come from another shard
		e.mu.Lock()
		e.set = ls
		e.mu.Unlock()
		sh.attached++
	}
	return e, nil
}

// unpin drops a pin taken by entryFor, liveEntry or the sweeper. The last
// pin off an unheld entry detaches its lock set and returns it to the
// server's pool; the set is quiescent then, because every waiter and
// every caller of pool.Release holds a pin while it touches the set.
func (s *Server) unpin(sh *shard, e *entry) {
	if e.refs.Add(-1) != 0 {
		return
	}
	e.mu.Lock()
	detach := !e.held && e.set != nil
	e.mu.Unlock()
	if !detach {
		return
	}
	// Recheck under both locks: pins are taken under sh.mu (or under
	// e.mu on a held entry), so neither can slip in between.
	sh.mu.Lock()
	e.mu.Lock()
	ls := e.set
	if e.refs.Load() != 0 || e.held || ls == nil {
		ls = nil
	} else {
		e.set = nil
		sh.attached--
	}
	e.mu.Unlock()
	sh.mu.Unlock()
	if ls != nil {
		s.sets.Put(ls)
	}
}

// evictLRU removes the least-recently-used idle entry, reporting whether
// an eviction happened. Caller holds sh.mu.
func (sh *shard) evictLRU() bool {
	var victim *entry
	for _, e := range sh.entries {
		if !e.idle() {
			continue
		}
		if victim == nil || e.lastUse.Load() < victim.lastUse.Load() {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	delete(sh.entries, victim.name)
	sh.retired.Add(1)
	return true
}

// sweeper drives every shard's expiry reclaim and idle retirement until
// Close.
func (s *Server) sweeper() {
	defer s.sweepDone.Done()
	tick := time.NewTicker(s.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-tick.C:
			now := s.cfg.now()
			for _, sh := range s.shards {
				s.sweepShard(sh, now)
			}
		}
	}
}

// sweepShard reclaims expired leases and retires idle entries in one
// shard. Reclaiming pins the entry, then calls pool.Release (which hands
// the lock to the next queued waiter) outside both mutexes.
func (s *Server) sweepShard(sh *shard, now time.Time) {
	sh.mu.Lock()
	live := make([]*entry, 0, len(sh.entries))
	for _, e := range sh.entries {
		live = append(live, e)
	}
	sh.mu.Unlock()

	for _, e := range live {
		e.mu.Lock()
		if e.held && now.After(e.expiry) {
			h, ls := e.handle, e.set
			e.held = false
			e.handle = nil
			e.refs.Add(1) // under mu while held, so the set cannot detach
			e.mu.Unlock()
			sh.held.Add(-1)
			sh.expiries.Add(1)
			ls.pool.Release(h)
			s.unpin(sh, e)
			continue
		}
		e.mu.Unlock()
	}

	// Idle retirement: drop entries unheld and unreferenced past the idle
	// TTL. refs is checked under sh.mu, the same lock entryFor pins under,
	// so a concurrent acquire either pinned first (skip) or will re-create.
	cutoff := now.Add(-s.cfg.IdleRetire).UnixNano()
	sh.mu.Lock()
	for name, e := range sh.entries {
		if e.lastUse.Load() > cutoff || !e.idle() {
			continue
		}
		delete(sh.entries, name)
		sh.retired.Add(1)
	}
	sh.mu.Unlock()
}

// Stats is a point-in-time aggregate snapshot across all shards.
type Stats struct {
	Shards        int
	Locks         int   // live named locks
	LocksAttached int   // live named locks holding a lock set (pinned or held)
	Held          int64 // held leases
	Waiting       int64 // in-flight acquires
	InFlight      int64 // in-flight requests (global gate usage)
	Draining      bool

	Acquires       int64
	Timeouts       int64
	Sheds          int64 // shard-budget + table-full sheds
	GlobalSheds    int64 // global-gate sheds
	Expiries       int64
	FencingRejects int64
	Releases       int64
	Renews         int64
	Retired        int64
}

// Stats aggregates the per-shard counters. Values are individually atomic
// snapshots and may be mutually skewed under load.
func (s *Server) Stats() Stats {
	st := Stats{
		Shards:      len(s.shards),
		InFlight:    s.inflight.Load(),
		GlobalSheds: s.globalSheds.Load(),
		Draining:    s.draining.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Locks += len(sh.entries)
		st.LocksAttached += sh.attached
		sh.mu.Unlock()
		st.Held += sh.held.Load()
		st.Waiting += sh.waiting.Load()
		st.Acquires += sh.acquires.Load()
		st.Timeouts += sh.timeouts.Load()
		st.Sheds += sh.sheds.Load()
		st.Expiries += sh.expiries.Load()
		st.FencingRejects += sh.fencingRejects.Load()
		st.Releases += sh.releases.Load()
		st.Renews += sh.renews.Load()
		st.Retired += sh.retired.Load()
	}
	return st
}
