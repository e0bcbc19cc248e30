package main

import (
	"fmt"
	"math/rand"
	"time"
)

// Hot-name skew for svc-hot: rand.Zipf over hotNames names with P(k) ∝
// (1+k)^-hotSkew, which gives the hottest name about 40% of acquires.
const (
	hotNames = 16
	hotSkew  = 1.3
)

// passage is one scheduled acquire→release: when it is due, relative to
// the start of its window, and which lock name it takes.
type passage struct {
	due  time.Duration
	name string
}

// rngFor derives an independent, reproducible stream for one lane of one
// window from the run seed (splitmix64 finalizer over the three inputs).
func rngFor(seed int64, window, lane int) *rand.Rand {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(window)<<20 + uint64(lane) + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ z>>31)))
}

// hotName is the name of hot-set member k.
func hotName(k int) string { return fmt.Sprintf("hot-%02d", k) }

// schedule returns each lane's passages for one window of length d at a
// total arrival rate of rate passages/s: every lane is an independent
// Poisson stream of rate/lanes, so arrivals never depend on completions.
// Cold names are fresh 64-bit random names; hot names follow the Zipf
// skew above. The result is a pure function of its arguments.
func schedule(hot bool, seed int64, window, lanes int, rate float64, d time.Duration) [][]passage {
	out := make([][]passage, lanes)
	mean := float64(lanes) / rate * float64(time.Second)
	for l := range out {
		rng := rngFor(seed, window, l)
		var zipf *rand.Zipf
		if hot {
			zipf = rand.NewZipf(rng, hotSkew, 1, hotNames-1)
		}
		ps := make([]passage, 0, int(rate/float64(lanes)*d.Seconds()*1.1)+16)
		for t := time.Duration(rng.ExpFloat64() * mean); t < d; t += time.Duration(rng.ExpFloat64() * mean) {
			var name string
			if zipf != nil {
				name = hotName(int(zipf.Uint64()))
			} else {
				name = fmt.Sprintf("cold-%016x", rng.Uint64())
			}
			ps = append(ps, passage{due: t, name: name})
		}
		out[l] = ps
	}
	return out
}
