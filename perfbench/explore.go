package main

import (
	"fmt"
	"sync"
	"time"

	"sublock/internal/harness"
	"sublock/rmr"
)

// exploreConfig is sim-explore's tree: the paper's lock under the CC model,
// W=4, three processes of which one is aborted by a signal process, under
// sleep-set POR and visited caching, sequential so every count repeats.
// The step bound sizes one exploration to a few seconds.
func exploreConfig() harness.ExploreConfig {
	return harness.ExploreConfig{
		Model: rmr.CC, Algo: harness.AlgoPaper, W: 4, N: 3, Aborters: 1,
		MaxSteps: 28, Workers: 1, Reduction: rmr.SleepSets, Visited: true,
	}
}

// checkExplore requires a finished, violation-free, exact exploration.
func checkExplore(res rmr.Result, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("exploration: %w", err)
	case !res.Exhausted:
		return fmt.Errorf("exploration stopped before exhausting the tree")
	case res.VisitedSaturated:
		return fmt.Errorf("visited set saturated: counts are no longer exact")
	}
	return nil
}

// sameTree reports whether two explorations covered the same tree the same
// way.
func sameTree(a, b rmr.Result) bool {
	return a.Explored == b.Explored && a.Pruned == b.Pruned && a.Equivalent == b.Equivalent &&
		a.VisitedHits == b.VisitedHits && a.SymmetryCuts == b.SymmetryCuts && a.Exhausted == b.Exhausted
}

// replayTimes records when each replay of a wrapped body started and ended.
type replayTimes struct {
	mu         sync.Mutex
	epoch      time.Time
	start, end []int64 // ns since epoch
}

// wrapped explores cfg's tree like harness.Explore, with the body wrapped so
// each replay is timed (and, in a traced run, recorded as a span).
func wrapped(cfg harness.ExploreConfig, tr *tracer, id uint64) (rmr.Result, *replayTimes, error) {
	body := harness.ExhaustiveBody(cfg.Model, cfg.Algo, cfg.W, cfg.N, cfg.Aborters)
	rt := &replayTimes{epoch: time.Now()}
	timed := func(s *rmr.Scheduler, budget int) error {
		t0 := time.Since(rt.epoch)
		err := body(s, budget)
		t1 := time.Since(rt.epoch)
		rt.mu.Lock()
		rt.start = append(rt.start, int64(t0))
		rt.end = append(rt.end, int64(t1))
		rt.mu.Unlock()
		if tr != nil {
			off := int64(rt.epoch.Sub(tr.epoch))
			tr.add(id, spanReplay, off+int64(t0), off+int64(t1))
		}
		return err
	}
	e := &rmr.Explorer{MaxSteps: cfg.MaxSteps, Workers: cfg.Workers, Reduction: cfg.Reduction, Visited: cfg.Visited}
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	res, err := e.Run(cfg.Procs(), timed)
	if tr != nil {
		tr.add(id, spanExplore, t0, tr.now())
	}
	return res, rt, err
}

// durations returns each replay's duration and the explorer's own time
// before each replay (since the previous replay ended, or since the start).
func (rt *replayTimes) durations() (replay, between []int64) {
	var prev int64
	for i := range rt.start {
		replay = append(replay, rt.end[i]-rt.start[i])
		between = append(between, rt.start[i]-prev)
		prev = rt.end[i]
	}
	return replay, between
}
