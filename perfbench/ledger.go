package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"sublock/abortable"
	"sublock/lockd"
)

// ledgerRow prices one uncontended same-name passage at one layer.
type ledgerRow struct{ ns, allocs float64 }

// price runs op from a single caller for about d, after a short warm-up,
// and returns its mean time and heap allocations per call.
func price(d time.Duration, batch int, op func() error) (ledgerRow, error) {
	for i := 0; i < batch; i++ {
		if err := op(); err != nil {
			return ledgerRow{}, err
		}
	}
	m0 := readMem()
	t0 := time.Now()
	n := 0
	for time.Since(t0) < d {
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return ledgerRow{}, err
			}
		}
		n += batch
	}
	el := time.Since(t0)
	m1 := readMem()
	return ledgerRow{ns: float64(el.Nanoseconds()) / float64(n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}, nil
}

// ledger prices the same passage through each public layer in turn: the
// native lock's HandlePool, lockd.Server in process, and lockd/client over
// loopback HTTP.
func ledger(d time.Duration) (pool, server, http ledgerRow, err error) {
	ctx := context.Background()

	lk := abortable.New(abortable.Config{MaxHandles: lockd.DefaultPoolSize})
	hp, err := abortable.NewHandlePool(lk, lockd.DefaultPoolSize)
	if err != nil {
		return
	}
	pool, err = price(d, 256, func() error {
		h, err := hp.EnterContext(ctx)
		if err != nil {
			return err
		}
		hp.Release(h)
		return nil
	})
	if err != nil {
		return pool, server, http, fmt.Errorf("pool: %w", err)
	}

	srv := lockd.New(serverConfig())
	server, err = price(d, 64, func() error {
		ls, err := srv.Acquire(ctx, "ledger", leaseTTL, waitBudget)
		if err != nil {
			return err
		}
		return srv.Release(ls.Name, ls.Token)
	})
	srv.Close()
	if err != nil {
		return pool, server, http, fmt.Errorf("server: %w", err)
	}

	st, _, err := newStack(false, 1, nil)
	if err != nil {
		return pool, server, http, fmt.Errorf("http: %w", err)
	}
	defer st.close()
	cl := st.clients[0]
	http, err = price(d, 4, func() error {
		ls, err := cl.Acquire(ctx, "ledger", leaseTTL, waitBudget)
		if err != nil {
			return err
		}
		return cl.Release(ctx, ls)
	})
	if err != nil {
		err = fmt.Errorf("http: %w", err)
	}
	return pool, server, http, err
}

// bytesPerLock is the live heap one idle table entry costs: n distinct
// names pass through a fresh lockd.Server in process, and the live heap
// after a full GC is compared with the heap before.
func bytesPerLock(n int) (float64, error) {
	srv := lockd.New(serverConfig())
	defer srv.Close()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("table-%08d", i)
	}
	ctx := context.Background()
	runtime.GC()
	m0 := readMem()
	for _, name := range names {
		ls, err := srv.Acquire(ctx, name, leaseTTL, waitBudget)
		if err != nil {
			return 0, err
		}
		if err := srv.Release(ls.Name, ls.Token); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	m1 := readMem()
	live := srv.Stats().Locks
	runtime.KeepAlive(names)
	if live == 0 {
		return 0, fmt.Errorf("no live locks after %d acquires", n)
	}
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(live), nil
}
