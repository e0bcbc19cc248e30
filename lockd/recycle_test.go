package lockd

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShardOfMatchesFNV: the in-place hash places every name on the same
// shard as hash/fnv's 32-bit FNV-1a did, and hashing allocates nothing.
func TestShardOfMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, MaxNameLen)
	rng.Read(long)
	names := []string{"", string(long), strings.Repeat("n", MaxNameLen), "名前-ключ-🔒", "\xff\xfe\x00"}
	for len(names) < 10_000 {
		b := make([]byte, rng.Intn(65))
		rng.Read(b)
		names = append(names, string(b))
	}
	for _, n := range []int{1, 7, 16, 64} {
		s := &Server{shards: make([]*shard, n)}
		for i := range s.shards {
			s.shards[i] = &shard{id: i}
		}
		for i, name := range names {
			h := fnv.New32a()
			h.Write([]byte(name))
			want := int(h.Sum32() % uint32(n))
			if got := s.shardOf(name).id; got != want {
				t.Fatalf("%d shards, name #%d (%d bytes): shard %d, want %d", n, i, len(name), got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { s.shardOf(names[3]) }); allocs != 0 {
			t.Fatalf("shardOf allocates %.1f times per call, want 0", allocs)
		}
	}
}

// TestIdleNameFootprint: a name that has been acquired and released keeps
// only its lease state; its lock set went back to the pool. The guard is
// 512 B of live heap per idle name (a resident lock set is about 4.3 KB).
func TestIdleNameFootprint(t *testing.T) {
	const n, limit = 2000, 512
	s := newTestServer(t, Config{})
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("idle-%08d", i)
	}
	ctx := context.Background()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, name := range names {
		ls, err := s.Acquire(ctx, name, 0, 0)
		if err != nil {
			t.Fatalf("acquire %q: %v", name, err)
		}
		if err := s.Release(name, ls.Token); err != nil {
			t.Fatalf("release %q: %v", name, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(names)
	st := s.Stats()
	if st.Locks != n || st.LocksAttached != 0 {
		t.Fatalf("locks=%d attached=%d, want %d and 0", st.Locks, st.LocksAttached, n)
	}
	per := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
	t.Logf("live heap per idle name: %.0f B", per)
	if per > limit {
		t.Fatalf("live heap per idle name = %.0f B, want <= %d", per, limit)
	}
}

// grant is one lease the recycle stress test observed: when the acquire
// returned, and when the holder began to release it (zero if never).
type grant struct {
	token            uint64
	expiry           time.Time
	granted, release time.Time
}

// TestRecycleStress races lock-set recycling against everything that pins
// or unpins an entry: many goroutines on a few names over a tiny table
// (so LRU eviction runs constantly), 1 ms sweeps with millisecond TTLs (so
// expiry reclaim races release), context cancels mid-wait, and a Drain
// while acquires are still arriving. It checks that each name has at most
// one live lease, in token order; that no lock set is attached to two
// entries at once; that Drain terminates; and that every set is detached
// once the leases are gone.
func TestRecycleStress(t *testing.T) {
	cfg := Config{
		Shards:           2,
		PoolSize:         2,
		MaxLocksPerShard: 2,
		SweepInterval:    time.Millisecond,
		IdleRetire:       2 * time.Millisecond,
		TTL:              2 * time.Millisecond,
		Wait:             20 * time.Millisecond,
	}
	s := newTestServer(t, cfg)
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5"}

	var mu sync.Mutex
	grants := map[string][]*grant{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				name := names[rng.Intn(len(names))]
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					time.AfterFunc(time.Duration(rng.Intn(2000))*time.Microsecond, cancel)
				}
				ttl := time.Duration(1+rng.Intn(4)) * time.Millisecond
				ls, err := s.Acquire(ctx, name, ttl, 0)
				cancel()
				switch {
				case err == nil:
				case errors.Is(err, ErrDraining):
					return
				case errors.Is(err, ErrWaitTimeout), errors.Is(err, ErrTableFull),
					errors.Is(err, ErrOverloaded), errors.Is(err, context.Canceled):
					continue
				default:
					t.Errorf("acquire %s: %v", name, err)
					return
				}
				gr := &grant{token: ls.Token, expiry: ls.Expiry, granted: time.Now()}
				mu.Lock()
				grants[name] = append(grants[name], gr)
				mu.Unlock()
				expiry := ls.Expiry
				if rng.Intn(4) == 0 {
					// The renew may lose the race with the sweeper.
					if r, err := s.Renew(name, ls.Token, ttl); err == nil {
						expiry = r.Expiry
						mu.Lock()
						gr.expiry = expiry
						mu.Unlock()
					}
				}
				time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
				if rng.Intn(5) == 0 {
					continue // walk away: the sweeper reclaims at expiry
				}
				mu.Lock()
				gr.release = time.Now()
				mu.Unlock()
				err = s.Release(name, ls.Token)
				if errors.Is(err, ErrStale) || errors.Is(err, ErrUnknown) {
					// Only the sweeper's reclaim, which waits out the
					// lease, may take the name from a holder; after it the
					// idle entry may be retired too.
					if time.Now().Before(expiry) {
						t.Errorf("release %s token %d: %v before the lease expired", name, ls.Token, err)
					}
				} else if err != nil && !errors.Is(err, ErrExpired) {
					t.Errorf("release %s token %d: %v", name, ls.Token, err)
				}
			}
		}(int64(g))
	}

	// Identity scan: a lock set must never be attached to two entries.
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if dup := attachedTwice(s); dup != "" {
				t.Error(dup)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	close(stop)
	wg.Wait()
	<-scanDone

	// Leases lapse within their TTL; the sweeper's reclaim must then leave
	// no lock set attached.
	deadline := time.Now().Add(2 * time.Second)
	for st := s.Stats(); st.Held != 0 || st.LocksAttached != 0; st = s.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("held=%d attached=%d after every lease expired, want 0 and 0", st.Held, st.LocksAttached)
		}
		time.Sleep(time.Millisecond)
	}

	total := 0
	for name, gs := range grants {
		total += len(gs)
		sort.Slice(gs, func(i, j int) bool { return gs[i].token < gs[j].token })
		for i := 1; i < len(gs); i++ {
			prev, cur := gs[i-1], gs[i]
			if cur.token == prev.token {
				t.Fatalf("%s: token %d granted twice", name, cur.token)
			}
			// The server grants cur only after prev is released or
			// reclaimed at expiry, and the holder starts its release
			// before the server sees it, so cur's grant is observed after
			// the earlier of the two.
			end := prev.expiry
			if !prev.release.IsZero() && prev.release.Before(end) {
				end = prev.release
			}
			if !cur.granted.After(end) {
				t.Fatalf("%s: token %d granted while token %d was live (granted %v before its end)",
					name, cur.token, prev.token, end.Sub(cur.granted))
			}
		}
	}
	if total == 0 {
		t.Fatal("no grants observed")
	}
	t.Logf("%d grants over %d names; stats %+v", total, len(grants), s.Stats())
}

// attachedTwice scans every shard's table and reports a lock set attached
// to more than one entry, or "" if there is none.
func attachedTwice(s *Server) string {
	owner := map[*lockSet]string{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for name, e := range sh.entries {
			e.mu.Lock()
			ls := e.set
			e.mu.Unlock()
			if ls == nil {
				continue
			}
			if prev, ok := owner[ls]; ok {
				sh.mu.Unlock()
				return fmt.Sprintf("lock set %p attached to both %q and %q", ls, prev, name)
			}
			owner[ls] = name
		}
		sh.mu.Unlock()
	}
	return ""
}
