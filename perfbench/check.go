package main

import (
	"fmt"
	"sort"

	"sublock/lockd"
)

// grant is one successful passage on a name, as the client saw it.
type grant struct {
	acquired, relSent int64 // acquire returned; release sent
	token             uint64
}

// checkGrants verifies, from outside the service, the two lease guarantees
// for one name's grants: in acquire order, each fencing token exceeds the
// previous one, and each grant returns only after the previous holder sent
// its release — no two lanes ever hold the name at once.
func checkGrants(name string, gs []grant) error {
	sort.Slice(gs, func(i, j int) bool { return gs[i].acquired < gs[j].acquired })
	for i := 1; i < len(gs); i++ {
		prev, cur := gs[i-1], gs[i]
		if cur.token <= prev.token {
			return fmt.Errorf("%s: token %d granted after token %d", name, cur.token, prev.token)
		}
		if cur.acquired <= prev.relSent {
			return fmt.Errorf("%s: token %d held at %dns while token %d was held until %dns",
				name, cur.token, cur.acquired, prev.token, prev.relSent)
		}
	}
	return nil
}

// checkWindow runs the per-name checks over a window's passages, and
// requires that at the long lease TTL no lease expired and no release was
// fenced off.
func checkWindow(sched [][]passage, samples [][]sample, st lockd.Stats) error {
	byName := map[string][]grant{}
	for l, lane := range samples {
		for i, s := range lane {
			if s.ok {
				n := sched[l][i].name
				byName[n] = append(byName[n], grant{s.acquired, s.relSent, s.token})
			}
		}
	}
	for name, gs := range byName {
		if err := checkGrants(name, gs); err != nil {
			return err
		}
	}
	if st.Expiries != 0 || st.FencingRejects != 0 {
		return fmt.Errorf("lockd reports %d lease expiries and %d fencing rejections at a %v TTL",
			st.Expiries, st.FencingRejects, leaseTTL)
	}
	return nil
}
