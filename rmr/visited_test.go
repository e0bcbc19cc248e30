package rmr

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestVisitedReduction: state-hash caching must cut re-converging
// interleavings of the spin-lock tree without changing the verdict or
// exhaustiveness, both with and without sleep sets underneath.
func TestVisitedReduction(t *testing.T) {
	const maxSteps = 14
	full, err := (&Explorer{MaxSteps: maxSteps}).Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	for _, red := range []Reduction{NoReduction, SleepSets} {
		base, err := (&Explorer{MaxSteps: maxSteps, Reduction: red}).Run(3, spinLockBody)
		if err != nil {
			t.Fatal(err)
		}
		vis, err := (&Explorer{MaxSteps: maxSteps, Reduction: red, Visited: true}).Run(3, spinLockBody)
		if err != nil {
			t.Fatalf("red=%v visited: %v", red, err)
		}
		if !vis.Exhausted {
			t.Fatalf("red=%v visited: tree not exhausted", red)
		}
		if vis.VisitedSaturated {
			t.Fatalf("red=%v visited: set saturated on a toy tree", red)
		}
		if vis.VisitedHits == 0 {
			t.Errorf("red=%v visited: no visited hits on a re-converging tree", red)
		}
		if vis.Replays() >= base.Replays() {
			t.Errorf("red=%v visited: replays %d, want < %d", red, vis.Replays(), base.Replays())
		}
		if vis.Explored >= full.Explored {
			t.Errorf("red=%v visited: explored %d, want < full %d", red, vis.Explored, full.Explored)
		}
	}
}

// TestSymmetryReduction: the three spin-lock processes are interchangeable,
// so restricting fresh grants to the smallest fresh id must cut the
// explored schedules roughly by the 3! id permutations while staying
// exhaustive over the canonical tree.
func TestSymmetryReduction(t *testing.T) {
	const maxSteps = 14
	for _, red := range []Reduction{NoReduction, SleepSets} {
		base, err := (&Explorer{MaxSteps: maxSteps, Reduction: red}).Run(3, spinLockBody)
		if err != nil {
			t.Fatal(err)
		}
		sym, err := (&Explorer{MaxSteps: maxSteps, Reduction: red, Symmetry: true}).Run(3, spinLockBody)
		if err != nil {
			t.Fatalf("red=%v symmetry: %v", red, err)
		}
		if !sym.Exhausted {
			t.Fatalf("red=%v symmetry: tree not exhausted", red)
		}
		if sym.Replays()*2 >= base.Replays() {
			t.Errorf("red=%v symmetry: replays %d, want < half of %d", red, sym.Replays(), base.Replays())
		}
	}
}

// TestReductionLatticeViolation: every point of the reduction lattice must
// still find a violation in the buggy lock, and the reported schedule must
// reproduce it under a plain replay.
func TestReductionLatticeViolation(t *testing.T) {
	const maxSteps = 12
	cases := []Explorer{
		{MaxSteps: maxSteps},
		{MaxSteps: maxSteps, Reduction: SleepSets},
		{MaxSteps: maxSteps, Reduction: SleepSets, Visited: true},
		{MaxSteps: maxSteps, Reduction: SleepSets, Visited: true, Symmetry: true},
		{MaxSteps: maxSteps, Visited: true, Symmetry: true},
	}
	for i, e := range cases {
		_, err := e.Run(2, buggyLockBody)
		var ee *ErrExplore
		if !errors.As(err, &ee) {
			t.Fatalf("case %d (vis=%v sym=%v red=%v): no violation: %v",
				i, e.Visited, e.Symmetry, e.Reduction, err)
		}
		rp := newReplayer(2, exploreConfig{maxSteps: maxSteps})
		if rerr := rp.run(ee.Schedule, buggyLockBody, maxSteps); rerr == nil {
			t.Errorf("case %d: reported schedule %v does not reproduce", i, ee.Schedule)
		}
		rp.close()
	}
}

// TestVisitedParallelDeterminism: with visited caching and symmetry on,
// Workers=1 must reproduce the sequential counts exactly (the one-worker
// engine pops tasks in DFS order), and at every worker count the coverage
// guarantees must hold: same Explored representatives and an exhausted
// tree. The Pruned/VisitedHits split and the depth histogram are NOT
// asserted for racing workers — whether a replay is cut at a revisited
// state or runs on to the step limit depends on which of two equal-key
// nodes a concurrent worker keyed first, so those counts are bookkeeping
// of the particular interleaving of workers, not properties of the tree.
func TestVisitedParallelDeterminism(t *testing.T) {
	const maxSteps = 14
	e := &Explorer{MaxSteps: maxSteps, Reduction: SleepSets, Visited: true, Symmetry: true}
	want, err := e.Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	one := *e
	one.Workers = 1
	got, err := one.Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(want, got) {
		t.Errorf("workers=1: %+v, want sequential %+v", got, want)
	}
	for _, workers := range []int{2, 4, 8} {
		ep := *e
		ep.Workers = workers
		got, err := ep.Run(3, spinLockBody)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Explored != want.Explored || got.Exhausted != want.Exhausted {
			t.Errorf("workers=%d: explored=%d exhausted=%v, want %d, %v",
				workers, got.Explored, got.Exhausted, want.Explored, want.Exhausted)
		}
		if got.VisitedHits == 0 {
			t.Errorf("workers=%d: visited caching cut nothing", workers)
		}
	}
}

// TestCheckpointResumeDeterministic: chaining capped checkpointed runs to
// completion must cover the tree exactly. At Workers=1 the resumed runs
// replay the exact continuation of the interrupted DFS, so the final
// totals — and the final serialized artifact — must be byte-identical to
// an uninterrupted run's. At higher worker counts the invariant subset is
// asserted (see TestVisitedParallelDeterminism for why the cut split is
// order-dependent under racing workers).
func TestCheckpointResumeDeterministic(t *testing.T) {
	const maxSteps, config = 14, "spinlock/cc/n=3"
	for _, workers := range []int{1, 2, 4} {
		e := &Explorer{MaxSteps: maxSteps, Reduction: SleepSets, Visited: true, Workers: workers}
		want, wantCk, err := e.RunCheckpoint(3, spinLockBody, config, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !wantCk.Complete || !want.Exhausted {
			t.Fatalf("workers=%d: uninterrupted run did not complete: %+v", workers, want)
		}

		var resume *Checkpoint
		var got Result
		for hops := 0; ; hops++ {
			if hops > 10000 {
				t.Fatal("resume chain does not terminate")
			}
			step := *e
			step.MaxSchedules = got.Replays() + 50
			res, ck, err := step.RunCheckpoint(3, spinLockBody, config, resume)
			if err != nil {
				t.Fatal(err)
			}
			// Round-trip through the serialized form, as the CLI does.
			data, err := ck.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if resume, err = DecodeCheckpoint(data); err != nil {
				t.Fatal(err)
			}
			got = res
			if ck.Complete {
				if hops == 0 {
					t.Fatalf("workers=%d: cap did not interrupt the run", workers)
				}
				break
			}
		}
		if workers == 1 {
			if !resultsEqual(want, got) {
				t.Errorf("workers=1: resumed totals %+v, want %+v", got, want)
			}
			wantData, _ := wantCk.Encode()
			gotData, _ := resume.Encode()
			if !bytes.Equal(wantData, gotData) {
				t.Errorf("workers=1: final checkpoint differs from uninterrupted run's:\n%s\nvs\n%s",
					gotData, wantData)
			}
		} else {
			if got.Explored != want.Explored || !got.Exhausted {
				t.Errorf("workers=%d: resumed explored=%d exhausted=%v, want %d, true",
					workers, got.Explored, got.Exhausted, want.Explored)
			}
			if !resume.Complete {
				t.Errorf("workers=%d: final checkpoint not marked complete", workers)
			}
		}
	}
}

// TestCheckpointValidation: version and configuration mismatches must be
// rejected with the sentinel errors, not silently resumed.
func TestCheckpointValidation(t *testing.T) {
	const maxSteps, config = 14, "spinlock/cc/n=3"
	e := &Explorer{MaxSteps: maxSteps, Reduction: SleepSets, MaxSchedules: 20}
	_, ck, err := e.RunCheckpoint(3, spinLockBody, config, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Complete {
		t.Fatal("cap did not interrupt the run")
	}

	bad := *ck
	bad.Version = CheckpointVersion + 1
	if _, _, err := e.RunCheckpoint(3, spinLockBody, config, &bad); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("version mismatch: err = %v, want ErrCheckpointVersion", err)
	}
	data, _ := bad.Encode()
	if _, err := DecodeCheckpoint(data); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("decode of v%d: err = %v, want ErrCheckpointVersion", bad.Version, err)
	}
	if _, _, err := e.RunCheckpoint(3, spinLockBody, "other/config", ck); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("config mismatch: err = %v, want ErrCheckpointConfig", err)
	}
	e2 := *e
	e2.MaxSteps = maxSteps + 2
	if _, _, err := e2.RunCheckpoint(3, spinLockBody, config, ck); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("max-steps mismatch: err = %v, want ErrCheckpointConfig", err)
	}
	e3 := *e
	e3.Visited = true
	if _, _, err := e3.RunCheckpoint(3, spinLockBody, config, ck); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("reduction mismatch: err = %v, want ErrCheckpointConfig", err)
	}
}

// TestShardMerge: without reduction the shards partition the tree exactly,
// so the merged counts must equal the unsharded run's; under reduction each
// shard must still exhaust its subtree, and a violation must surface in at
// least one shard.
func TestShardMerge(t *testing.T) {
	const maxSteps, shards = 14, 3
	want, err := (&Explorer{MaxSteps: maxSteps}).Run(3, spinLockBody)
	if err != nil {
		t.Fatal(err)
	}
	var parts []Result
	for shard := 0; shard < shards; shard++ {
		res, err := (&Explorer{MaxSteps: maxSteps, Shard: shard, ShardCount: shards}).Run(3, spinLockBody)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if !res.Exhausted {
			t.Fatalf("shard %d: subtree not exhausted", shard)
		}
		parts = append(parts, res)
	}
	if got := Merge(parts...); !resultsEqual(want, got) {
		t.Errorf("merged shards %+v, want unsharded %+v", got, want)
	}

	found := 0
	for shard := 0; shard < shards; shard++ {
		e := &Explorer{MaxSteps: 12, Reduction: SleepSets, Visited: true, Shard: shard, ShardCount: shards}
		_, err := e.Run(2, buggyLockBody)
		var ee *ErrExplore
		if errors.As(err, &ee) {
			found++
		} else if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
	}
	if found == 0 {
		t.Error("no shard found the buggy-lock violation")
	}
}

// TestVisitedSetSaturation: the set must keep answering correctly after the
// insertion limit, only losing the recording of new states.
func TestVisitedSetSaturation(t *testing.T) {
	vs := newVisitedSet(8) // limit 7 of 8 slots
	for i := uint64(1); i <= 7; i++ {
		if vs.seen(i * 0x1111111111111111) {
			t.Fatalf("fresh fingerprint %d reported seen", i)
		}
	}
	if vs.sat.Load() {
		t.Fatal("saturated below the limit")
	}
	if vs.seen(0xdeadbeef) {
		t.Fatal("first over-limit insert reported seen")
	}
	if !vs.sat.Load() {
		t.Fatal("saturation not flagged")
	}
	for i := uint64(1); i <= 7; i++ {
		if !vs.seen(i * 0x1111111111111111) {
			t.Errorf("recorded fingerprint %d lost after saturation", i)
		}
	}
	if vs.seen(0xdeadbeef) {
		t.Error("unrecorded fingerprint reported seen after saturation")
	}
}

// TestVisitedSetDumpLoad: dump/load must round-trip the recorded set in
// canonical (sorted) order.
func TestVisitedSetDumpLoad(t *testing.T) {
	vs := newVisitedSet(64)
	fps := []uint64{42, 7, 0x8000000000000000, 3, 99999}
	for _, fp := range fps {
		vs.seen(fp)
	}
	dump := vs.dump()
	if !sort.SliceIsSorted(dump, func(i, j int) bool { return dump[i] < dump[j] }) {
		t.Fatalf("dump not sorted: %v", dump)
	}
	if len(dump) != len(fps) {
		t.Fatalf("dump has %d entries, want %d", len(dump), len(fps))
	}
	re := newVisitedSet(64)
	re.load(dump)
	for _, fp := range fps {
		if !re.seen(fp) {
			t.Errorf("fingerprint %#x lost in round-trip", fp)
		}
	}
}

// visitedLimit is the saturation point Explorer.VisitedCap documents:
// entries rounded up to a power of two, less 1/8.
func visitedLimit(entries int) int {
	n := 1
	for n < entries {
		n <<= 1
	}
	return max(n-n/8, 1)
}

// checkAgainstMap offers fps to vs in order and checks every answer
// against a map of what was offered before.
func checkAgainstMap(t *testing.T, vs *visitedSet, fps []uint64) {
	t.Helper()
	ref := map[uint64]bool{}
	for i, fp := range fps {
		if got := vs.seen(fp); got != ref[fp] {
			t.Fatalf("insert %d (%#x): seen=%v, want %v", i, fp, got, ref[fp])
		}
		ref[fp] = true
	}
	want := make([]uint64, 0, len(ref))
	for fp := range ref {
		want = append(want, fp)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := vs.dump(); !slices.Equal(got, want) {
		t.Fatalf("dump has %d fingerprints, want the %d distinct ones offered", len(got), len(want))
	}
}

// TestVisitedSetMatchesMap: the set must answer exactly like a map on
// random fingerprints (with repeats), on adversarial ones that crowd the
// probe chains through many doublings, on the aliased fingerprint 0, and
// must saturate on exactly the insert the cap allows.
func TestVisitedSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	t.Run("random", func(t *testing.T) {
		pool := make([]uint64, 60000)
		for i := range pool {
			pool[i] = rng.Uint64()
		}
		fps := make([]uint64, 100000)
		for i := range fps {
			fps[i] = pool[rng.Intn(len(pool))]
		}
		checkAgainstMap(t, newVisitedSet(0), fps)
	})
	t.Run("adversarial", func(t *testing.T) {
		// The top 6 and low 8 bits fixed: every fingerprint shares a home
		// slot until the table outgrows 256 slots, and clusters of a
		// hundred stay after. 30000 fingerprints take the table from 64 to
		// 65536 slots: ten doublings.
		const top, low = uint64(0x2a) << 58, 0x55
		var fps []uint64
		for i := uint64(1); i <= 30000; i++ {
			fp := top | i<<8 | low
			fps = append(fps, fp, fp)
		}
		vs := newVisitedSet(0)
		checkAgainstMap(t, vs, fps)
		if n := len(vs.slots); n < visitedInit<<10 {
			t.Fatalf("table grew to %d slots, want >= %d", n, visitedInit<<10)
		}
	})
	t.Run("zero-alias", func(t *testing.T) {
		const sentinel = 0x9e3779b97f4a7c15
		for _, order := range [][2]uint64{{0, sentinel}, {sentinel, 0}} {
			vs := newVisitedSet(64)
			if vs.seen(order[0]) {
				t.Fatalf("%#x: fresh fingerprint reported seen", order[0])
			}
			if !vs.seen(order[1]) {
				t.Fatalf("%#x does not alias %#x", order[1], order[0])
			}
			if d := vs.dump(); !slices.Equal(d, []uint64{sentinel}) {
				t.Fatalf("dump = %#x, want [%#x]", d, uint64(sentinel))
			}
		}
	})
	t.Run("saturation", func(t *testing.T) {
		for _, c := range []int{1, 8, 64, 1000, 1 << 20} {
			vs := newVisitedSet(c)
			limit := visitedLimit(c)
			fps := make([]uint64, limit+1)
			for i := range fps {
				fps[i] = mix(0, uint64(i+1)) // a bijection: distinct, never 0
			}
			for i, fp := range fps[:limit] {
				if vs.seen(fp) || vs.sat.Load() {
					t.Fatalf("cap %d: insert %d of %d: seen or saturated early", c, i+1, limit)
				}
			}
			if vs.seen(fps[limit]) || !vs.sat.Load() {
				t.Fatalf("cap %d: insert %d did not saturate", c, limit+1)
			}
			if vs.seen(fps[limit]) {
				t.Fatalf("cap %d: unrecorded fingerprint reported seen", c)
			}
			if !vs.seen(fps[0]) || !vs.seen(fps[limit-1]) {
				t.Fatalf("cap %d: recorded fingerprint lost after saturation", c)
			}
			if n := len(vs.dump()); n != limit {
				t.Fatalf("cap %d: dump has %d fingerprints, want %d", c, n, limit)
			}
		}
	})
}

// TestVisitedSetConcurrentInsert: workers racing to insert overlapping
// fingerprint sets while the table grows must see each fingerprint reported
// new exactly once, and lose none of them.
func TestVisitedSetConcurrentInsert(t *testing.T) {
	const workers, distinct = 8, 40000
	rng := rand.New(rand.NewSource(2))
	fps := make([]uint64, distinct)
	for i := range fps {
		fps[i] = rng.Uint64() | 1
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	fps = slices.Compact(fps)
	// Fingerprint k goes to workers k%8 and (k+1)%8, and to a third at
	// random, each worker offering its share in its own order.
	shares := make([][]uint64, workers)
	for k, fp := range fps {
		shares[k%workers] = append(shares[k%workers], fp)
		shares[(k+1)%workers] = append(shares[(k+1)%workers], fp)
		r := rng.Intn(workers)
		shares[r] = append(shares[r], fp)
	}
	for _, sh := range shares {
		rng.Shuffle(len(sh), func(i, j int) { sh[i], sh[j] = sh[j], sh[i] })
	}
	vs := newVisitedSet(0)
	var fresh atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, sh := range shares {
		wg.Add(1)
		go func(sh []uint64) {
			defer wg.Done()
			<-start
			for _, fp := range sh {
				if !vs.seen(fp) {
					fresh.Add(1)
				}
			}
		}(sh)
	}
	close(start)
	wg.Wait()
	if n := fresh.Load(); n != int64(len(fps)) {
		t.Fatalf("%d fingerprints reported new, want %d", n, len(fps))
	}
	for _, fp := range fps {
		if !vs.seen(fp) {
			t.Fatalf("fingerprint %#x not recorded", fp)
		}
	}
	if got := vs.dump(); !slices.Equal(got, fps) {
		t.Fatalf("dump has %d fingerprints, want %d distinct", len(got), len(fps))
	}
}

// TestVisitedSetFootprint: the set's memory must track what it records. An
// almost empty set costs under a KiB, not a preallocated table, and a full
// one stays within a few words per fingerprint.
func TestVisitedSetFootprint(t *testing.T) {
	const emptyLimit, n, perLimit = 64 << 10, 200000, 24
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle frees sync.Pool victims
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	h0 := heap()
	vs := newVisitedSet(0)
	vs.seen(42)
	one := int64(heap()) - int64(h0)
	runtime.KeepAlive(vs)
	t.Logf("live heap of a one-fingerprint set: %d B", one)
	if one > emptyLimit {
		t.Fatalf("one-fingerprint set holds %d B, want <= %d", one, emptyLimit)
	}

	rng := rand.New(rand.NewSource(3))
	fps := make([]uint64, n)
	for i := range fps {
		fps[i] = rng.Uint64()
	}
	h0 = heap()
	vs = newVisitedSet(0)
	for _, fp := range fps {
		vs.seen(fp)
	}
	per := (float64(heap()) - float64(h0)) / n
	runtime.KeepAlive(vs)
	runtime.KeepAlive(fps)
	t.Logf("live heap per fingerprint: %.1f B", per)
	if per > perLimit {
		t.Fatalf("live heap per fingerprint = %.1f B, want <= %d", per, perLimit)
	}
}

// symCounterBody returns a fully id-symmetric body over nprocs processes:
// shared words only, no per-id branching, so any id permutation of a
// schedule is again a valid schedule with permuted histories.
func symCounterBody(nprocs, maxSteps int, s *Scheduler) *Memory {
	m := NewMemory(CC, nprocs, s)
	lock := m.Alloc(0)
	count := m.Alloc(0)
	for i := 0; i < nprocs; i++ {
		p := m.Proc(i)
		s.GoProc(i, func() {
			for !p.CAS(lock, 0, 1) {
				if p.AbortSignal() {
					return
				}
			}
			p.FAA(count, 1)
			p.Write(lock, 0)
		})
	}
	return m
}

// canonicalFingerprint hashes the id-independent view of a finished run:
// per-word values, the *sizes* of the per-word coherence sets (the sets
// themselves are pid bitmasks, so only their cardinality is id-invariant),
// and the sorted multiset of per-process observation histories. Two runs
// that are id permutations of each other must agree on it.
func canonicalFingerprint(s *Scheduler, m *Memory) uint64 {
	h := uint64(0x8c9da6b1f8d3a7e5)
	n := m.size.Load()
	var a int64
	for k := 0; a < n; k++ {
		seg := *m.segs[k].Load()
		lim := int64(len(seg))
		if n-a < lim {
			lim = n - a
		}
		for i := int64(0); i < lim; i++ {
			w := &seg[i]
			h = mix(h, w.val.Load())
			h = mix(h, uint64(bits.OnesCount64(w.cached.inline.Load())))
		}
		a += lim
	}
	hists := append([]uint64(nil), s.hist...)
	sort.Slice(hists, func(i, j int) bool { return hists[i] < hists[j] })
	for _, lh := range hists {
		h = mix(h, lh)
	}
	return h
}

// FuzzSymmetryFingerprint drives a fuzz-chosen schedule over a symmetric
// body, then replays the same schedule with every process id permuted, and
// asserts both runs converge to the same canonical state fingerprint —
// the invariance the symmetry reduction's soundness rests on.
func FuzzSymmetryFingerprint(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0})
	f.Add([]byte{2, 2, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, choices []byte) {
		const nprocs, maxSteps = 3, 16
		perms := [][]int{{1, 2, 0}, {2, 1, 0}, {0, 2, 1}}

		// Base run: the fuzz bytes choose a pid at every quiescent point.
		var pids []int
		run := func(choose func(step int, waiting []int) int) (uint64, error) {
			var s *Scheduler
			s = NewScheduler(nprocs, func(step int, waiting []int) int {
				return choose(step, waiting)
			})
			s.hist = make([]uint64, nprocs)
			m := symCounterBody(nprocs, maxSteps, s)
			err := s.Run(maxSteps)
			// Fingerprint at the quiescent point before any drain: drained
			// steps run in fixed pid order, so they are not covariant under
			// id permutation — only the scheduled portion is.
			fp := canonicalFingerprint(s, m)
			if err != nil {
				for i := 0; i < nprocs; i++ {
					m.Proc(i).SignalAbort()
				}
				s.Drain()
			}
			return fp, err
		}

		baseFp, baseErr := run(func(step int, waiting []int) int {
			var c int
			if step < len(choices) {
				c = int(choices[step]) % len(waiting)
			}
			pids = append(pids, waiting[c])
			return c
		})

		for _, perm := range perms {
			permFp, permErr := run(func(step int, waiting []int) int {
				if step >= len(pids) {
					t.Fatalf("permuted run outlived the base schedule at step %d", step)
				}
				want := perm[pids[step]]
				for i, pid := range waiting {
					if pid == want {
						return i
					}
				}
				t.Fatalf("permuted pid %d not waiting at step %d (waiting %v): body not id-symmetric?",
					want, step, waiting)
				return 0
			})
			if (baseErr == nil) != (permErr == nil) {
				t.Fatalf("perm %v: verdict differs: base %v, permuted %v", perm, baseErr, permErr)
			}
			if permFp != baseFp {
				t.Errorf("perm %v: canonical fingerprint %#x, want %#x", perm, permFp, baseFp)
			}
		}
	})
}

// TestExploreCountsVisitedExact pins the visited-caching cut exactly on a
// two-process tree of two Writes each to distinct words: interleaving
// states form a 3x3 progress grid (word values reveal only how far each
// process got), so the 6-leaf choice tree collapses onto the grid's
// diagonal sweep. Hand-traced: the leftmost replay [0,0,1,1] is explored;
// prefix [0,1] re-converges with it at depth 3 (hit); [0,1,1,...] is
// explored as the second representative; prefixes [1] and [1,1] both hit
// states already keyed from the p0-first branches (depths 2 and 3). The
// counts below are an exact regression anchor. A second run pins the
// symmetry cut on the fully id-symmetric shared-FAA body, where the
// canonical tree grants fresh ids smallest-first: 3 replays cover the 6
// leaves.
func TestExploreCountsVisitedExact(t *testing.T) {
	grid := func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, 2, s)
		words := []Addr{m.Alloc(0), m.Alloc(0)}
		for i := 0; i < 2; i++ {
			p := m.Proc(i)
			w := words[i]
			s.GoProc(i, func() {
				p.Write(w, 1)
				p.Write(w, 2)
			})
		}
		if err := s.Run(maxSteps); err != nil {
			return err
		}
		for i, w := range words {
			if got := m.Peek(w); got != 2 {
				return fmt.Errorf("word %d = %d, want 2", i, got)
			}
		}
		return nil
	}
	res, err := (&Explorer{Visited: true}).Run(2, grid)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Fatalf("grid run not exhausted: %+v", res)
	}
	if res.Explored != 2 || res.VisitedHits != 3 {
		t.Errorf("grid counts explored=%d hits=%d, want 2 and 3 (full tree has 6 leaves)",
			res.Explored, res.VisitedHits)
	}

	// Shared-word FAAs are id-symmetric: with 2 interchangeable processes
	// the canonical tree keeps only grant orders whose first grant goes to
	// the smallest fresh id — 3 replays instead of the full tree's 6.
	faa := func(s *Scheduler, maxSteps int) error {
		m := NewMemory(CC, 2, s)
		a := m.Alloc(0)
		for i := 0; i < 2; i++ {
			p := m.Proc(i)
			s.GoProc(i, func() {
				p.FAA(a, 1)
				p.FAA(a, 1)
			})
		}
		if err := s.Run(maxSteps); err != nil {
			return err
		}
		if got := m.Peek(a); got != 4 {
			return fmt.Errorf("counter = %d, want 4", got)
		}
		return nil
	}
	full, err := (&Explorer{}).Run(2, faa)
	if err != nil {
		t.Fatal(err)
	}
	if full.Explored != 6 {
		t.Fatalf("full FAA tree explored %d leaves, want 6", full.Explored)
	}
	sym, err := (&Explorer{Symmetry: true}).Run(2, faa)
	if err != nil {
		t.Fatal(err)
	}
	if !sym.Exhausted {
		t.Fatal("symmetry run not exhausted")
	}
	if sym.Replays() != 3 {
		t.Errorf("symmetry replays %d, want 3 (canonical half of the 6-leaf tree)", sym.Replays())
	}
}
