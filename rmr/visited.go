package rmr

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// State-hash visited caching and process-ID symmetry reduction for the
// Explorer.
//
// Visited caching cuts re-converging interleavings: at every free choice
// point the recorder fingerprints the quiescent global state — shared
// memory words with their coherence sets, each process's observation
// history, pending abort signals, crash-fault attempt counts, the waiting
// set — together with the depth and the current sleep set, and consults a
// visited set shared by the whole exploration. A hit means a previously
// replayed schedule reached an identical state at the same depth under the
// same sleep constraints, so every continuation from here is a replica of
// continuations already covered; the replay is cut and counted in
// Result.VisitedHits.
//
// Symmetry reduction restricts the schedule tree to canonical
// representatives of process-ID orbits: a process that has never been
// granted a step may only be granted if it is the smallest never-granted
// id of its role class. For ID-symmetric bodies (locks.Info.IDSymmetric)
// every schedule is equivalent — up to a class-preserving id permutation —
// to a canonical one, so exploring only canonical schedules preserves
// violation verdicts while cutting the (k-1)!-fold redundancy of k
// interchangeable processes. Cut replays count in Result.SymmetryCuts.
//
// Both reductions compose with sleep sets by a well-founded argument over
// the lexicographic schedule order: every cut is justified by a strictly
// lex-smaller schedule of the full tree with the same verdict, so the
// lex-least violating schedule can never be cut. See docs/MODEL.md
// ("State hashing & symmetry") for the soundness discussion, including
// the hash-compaction caveat.

// visitedSet is the exploration-wide set of 64-bit state fingerprints: one
// open-addressed table under one mutex that starts empty and doubles just
// before it would pass 7/8 full, so memory tracks the fingerprints
// recorded rather than the cap. Slots hold the fingerprint directly; 0 is
// the empty-slot sentinel (fingerprint 0 is remapped on entry). Look-up
// and insertion happen under the one lock, so a fingerprint is reported
// new exactly once however many workers race on it. The set never evicts:
// eviction would make cut decisions depend on arrival order, destroying
// the deterministic counts. When limit fingerprints are recorded the set
// saturates — lookups still hit recorded keys, but new states are no
// longer recorded and determinism across worker counts is lost;
// Result.VisitedSaturated reports it.
type visitedSet struct {
	mu    sync.Mutex
	slots []uint64 // empty, or a power of two in length
	n     int      // fingerprints recorded
	limit int
	sat   atomic.Bool
}

// visitedInit is the number of slots the table takes on its first insert.
const visitedInit = 64

// newVisitedSet bounds the set by entries rounded up to a power of two,
// less 1/8: the load limit of a table of that many slots, kept so the
// saturation point is independent of how the set is laid out.
func newVisitedSet(entries int) *visitedSet {
	if entries <= 0 {
		entries = defaultVisitedCap
	}
	n := 1
	for n < entries {
		n <<= 1
	}
	return &visitedSet{limit: max(n-n/8, 1)}
}

// defaultVisitedCap is the visited-set bound when Explorer.VisitedCap is
// zero: 1<<20, so the set saturates at 917,504 fingerprints.
const defaultVisitedCap = 1 << 20

// seen reports whether fp was already recorded, recording it if not (and
// if the set has room).
func (vs *visitedSet) seen(fp uint64) bool {
	if fp == 0 {
		fp = 0x9e3779b97f4a7c15 // 0 is the empty-slot sentinel
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	var i uint64
	if len(vs.slots) > 0 {
		if i = vs.slot(fp); vs.slots[i] == fp {
			return true
		}
	}
	if vs.n >= vs.limit {
		vs.sat.Store(true)
		return false
	}
	if vs.n >= len(vs.slots)-len(vs.slots)/8 {
		vs.grow()
		i = vs.slot(fp)
	}
	vs.slots[i] = fp
	vs.n++
	return false
}

// slot returns the index holding fp, or the empty slot ending its probe
// chain. The table must have slots.
func (vs *visitedSet) slot(fp uint64) uint64 {
	mask := uint64(len(vs.slots) - 1)
	i := fp & mask
	for vs.slots[i] != 0 && vs.slots[i] != fp {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table (or gives it its first one) and re-inserts the
// recorded fingerprints.
func (vs *visitedSet) grow() {
	old := vs.slots
	vs.slots = make([]uint64, max(2*len(old), visitedInit))
	for _, fp := range old {
		if fp != 0 {
			vs.slots[vs.slot(fp)] = fp
		}
	}
}

// dump returns the recorded fingerprints in ascending order — a canonical
// serialization for checkpoints.
func (vs *visitedSet) dump() []uint64 {
	vs.mu.Lock()
	out := make([]uint64, 0, vs.n)
	for _, fp := range vs.slots {
		if fp != 0 {
			out = append(out, fp)
		}
	}
	vs.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// load re-inserts a dumped fingerprint list (checkpoint resume).
func (vs *visitedSet) load(fps []uint64) {
	for _, fp := range fps {
		vs.seen(fp)
	}
}

// mix folds v into the running hash h with a splitmix64-style finalizer.
// The visited set stores only these 64-bit digests (hash compaction), so a
// collision silently merges two distinct states; with a strong mixer and
// bounded trees the probability is ~replays²/2⁶⁴ and any merge is
// deterministic — the same runs produce the same counts — but it is the
// price of the memory bound.
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return h
}

// visState is the recorder's visited-caching, symmetry and sharding
// machinery, the analogue of porState for the PR-9 reductions.
type visState struct {
	on     bool // visited caching enabled
	sym    bool // symmetry restriction enabled
	nprocs int
	s      *Scheduler  // for memory, history and fault-state access
	set    *visitedSet // shared across all replayers of the exploration

	// Per-replay cut classification, reset by replayer.run.
	vcut      bool // cut at an already-visited state
	scut      bool // cut at a symmetry-blocked choice point
	shardSkip bool // cut at the root: every choice belongs to another shard

	// Shard ownership of root-level choice indices; shardCount == 0
	// disables sharding.
	shard, shardCount int

	// Symmetry state. granted tracks the pids granted at least one step in
	// the current replay; grantedAt snapshots it at node entry per depth
	// (leftmost-writer discipline, like porState.sleepAt), so sibling
	// generation can re-evaluate canonicality at interior nodes. pidAt
	// mirrors porState.pidAt for explorations running symmetry without
	// sleep sets.
	classOf   []int32  // pid -> role-class index
	classMask []uint64 // class -> member pid mask
	granted   uint64
	grantedAt []uint64
	pidAt     []int32 // stride nprocs; unused when porState.pidAt serves
}

// active reports whether the recorder needs the extended pick path.
func (v *visState) active() bool { return v.on || v.sym || v.shardCount > 0 }

// initSym installs the role-class partition. classes lists the pid sets
// that are interchangeable; pids not mentioned get singleton classes (never
// restricted). nil classes puts every pid in one class.
func (v *visState) initSym(nprocs int, classes [][]int) {
	v.classOf = make([]int32, nprocs)
	for i := range v.classOf {
		v.classOf[i] = -1
	}
	if classes == nil {
		all := make([]int, nprocs)
		for i := range all {
			all[i] = i
		}
		classes = [][]int{all}
	}
	for _, class := range classes {
		var m uint64
		idx := int32(len(v.classMask))
		for _, pid := range class {
			if pid < 0 || pid >= nprocs {
				continue
			}
			m |= 1 << uint(pid)
			v.classOf[pid] = idx
		}
		v.classMask = append(v.classMask, m)
	}
	for pid, c := range v.classOf {
		if c < 0 {
			v.classOf[pid] = int32(len(v.classMask))
			v.classMask = append(v.classMask, 1<<uint(pid))
		}
	}
}

// symBlocked reports whether granting pid is non-canonical at a node with
// granted-mask g and waiting-mask wm: pid was never granted and a smaller
// never-granted pid of its class is waiting at this very node. Requiring
// the smaller pid to be present keeps the cut sound — the canonical
// alternative (swap the two interchangeable fresh pids, granting the
// smaller one here) must actually exist at this node — and means honest
// launch disciplines never strand a class.
func (v *visState) symBlocked(pid int, g, wm uint64) bool {
	if g&(1<<uint(pid)) != 0 {
		return false
	}
	min := bits.TrailingZeros64(v.classMask[v.classOf[pid]] &^ g)
	return min != pid && wm&(1<<uint(min)) != 0
}

// ownsRoot reports whether this shard owns root-level choice index c.
func (v *visState) ownsRoot(c int) bool {
	return v.shardCount == 0 || c%v.shardCount == v.shard
}

// ensureDepth grows the per-depth symmetry snapshots to cover depth step.
func (v *visState) ensureDepth(step int, needPid bool) {
	for len(v.grantedAt) <= step {
		v.grantedAt = append(v.grantedAt, 0)
		if needPid {
			for i := 0; i < v.nprocs; i++ {
				v.pidAt = append(v.pidAt, -1)
			}
		}
	}
}

// seen fingerprints the current quiescent state at the given depth and
// sleep mask and reports whether it was already visited, recording it if
// not. The fingerprint covers everything the continuation can depend on:
//
//   - every shared word's value and (CC) inline coherence set — the
//     memory-model state;
//   - each process's observation-history hash (Scheduler.hist): the
//     addresses, results and abort-flag observations of its operations so
//     far, which pin its control state because the body is deterministic;
//   - the pending abort flags (signals delivered but perhaps not yet
//     observed) and the waiting set;
//   - under a crash-only fault plan, each process's operation-attempt
//     count (crash points key off it);
//   - the depth and the sleep mask, so that a hit guarantees an identical
//     residual tree — this is what makes Explored/Pruned/Equivalent/
//     VisitedHits order-independent at any worker count, and what keeps
//     the sleep-set and visited reductions sound in combination (the
//     classical "ignoring problem" of state caching under sleep sets).
func (v *visState) seen(depth int, sleepMask uint64, waiting []int) bool {
	s := v.s
	m := s.mem
	if m == nil {
		return false // ungated body: nothing to fingerprint (see Body contract)
	}
	h := mix(0x8c9da6b1f8d3a7e5, uint64(depth))
	h = mix(h, sleepMask)
	h = mix(h, v.granted) // symmetry decisions below the node depend on it
	var wm uint64
	for _, pid := range waiting {
		wm |= 1 << uint(pid)
	}
	h = mix(h, wm)
	h = m.foldState(h)
	var ab uint64
	for i := range m.procs {
		if m.procs[i].abort.Load() && i < 64 {
			ab |= 1 << uint(i)
		}
	}
	h = mix(h, ab)
	for _, lh := range s.hist {
		h = mix(h, lh)
	}
	if f := s.fs; f != nil {
		for _, op := range f.ops {
			h = mix(h, uint64(uint32(op)))
		}
	}
	return v.set.seen(h)
}

// foldState folds every allocated word's value and inline coherence set
// into h. Called at quiescent pick points only: the step token serializes
// all operations, so the atomic loads form a consistent snapshot.
func (m *Memory) foldState(h uint64) uint64 {
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
			h = mix(h, w.cached.inline.Load())
		}
		a += lim
	}
	return h
}

// visPick is the extended PickFunc body for explorations running visited
// caching, symmetry or sharding without sleep sets; porPick integrates the
// same checks when sleep sets are on.
func (r *recorder) visPick(step int, waiting []int) int {
	v := &r.vis
	if v.sym {
		v.ensureDepth(step, true)
		base := step * v.nprocs
		for i, pid := range waiting {
			v.pidAt[base+i] = int32(pid)
		}
		v.grantedAt[step] = v.granted
	}
	if step < len(r.prefix) {
		choice := r.prefix[step]
		if choice >= len(waiting) {
			panic(badPrefix(step, choice, len(waiting)))
		}
		r.record(choice, waiting)
		return choice
	}
	if v.on && v.seen(step, 0, waiting) {
		v.vcut = true
		return -1
	}
	var wm uint64
	if v.sym {
		for _, pid := range waiting {
			wm |= 1 << uint(pid)
		}
	}
	symHit := false
	for i, pid := range waiting {
		if step == 0 && !v.ownsRoot(i) {
			continue
		}
		if v.sym && v.symBlocked(pid, v.granted, wm) {
			symHit = true
			continue
		}
		r.record(i, waiting)
		return i
	}
	if symHit {
		v.scut = true
	} else if step == 0 && v.shardCount > 0 {
		v.shardSkip = true
	}
	return -1
}

// record logs a taken choice and updates the granted mask.
func (r *recorder) record(choice int, waiting []int) {
	r.taken = append(r.taken, choice)
	r.width = append(r.width, len(waiting))
	if r.vis.sym {
		r.vis.granted |= 1 << uint(waiting[choice])
	}
}

// pidOf returns the pid of the choice-c sibling at depth d, from whichever
// per-depth snapshot is maintained.
func (r *recorder) pidOf(d, c int) int {
	if r.por.on {
		return int(r.por.pidAt[d*r.por.nprocs+c])
	}
	return int(r.vis.pidAt[d*r.vis.nprocs+c])
}

// skipSibling reports whether the choice-c sibling subtree at depth d must
// not be explored: a sleep-set member, a symmetry-non-canonical grant, or a
// root branch owned by another shard.
func (r *recorder) skipSibling(d, c int) bool {
	if r.por.on && r.asleep(d, c) {
		return true
	}
	v := &r.vis
	if d == 0 && v.shardCount > 0 && !v.ownsRoot(c) {
		return true
	}
	if v.sym {
		var wm uint64
		for i := 0; i < r.width[d]; i++ {
			wm |= 1 << uint(r.pidOf(d, i))
		}
		if v.symBlocked(r.pidOf(d, c), v.grantedAt[d], wm) {
			return true
		}
	}
	return false
}
