package main

import (
	"math/rand"
	"sort"
	"time"
)

// Arrival is one open-loop job: when it is due after its window opens,
// which topology it solves, whether it runs to convergence, and the seed of
// its starting-estimate perturbation.
type Arrival struct {
	Due  time.Duration
	Topo int
	Long bool
	Seed int64
}

// makeSchedule draws one window of Poisson arrivals at rate jobs/s. The
// count is fixed at rate × window, and the due times are sorted uniform
// draws — a Poisson process conditioned on its count — so every seed offers
// exactly the same load and only the placement varies. Exactly one job in
// longEvery runs to convergence; the rest are capped short solves. Each
// job's perturbation seed is drawn from starts.
func makeSchedule(seed int64, rate float64, window time.Duration, topos, longEvery int, starts []int64) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate*window.Seconds() + 0.5)
	out := make([]Arrival, n)
	for i := range out {
		out[i] = Arrival{
			Due:  time.Duration(rng.Int63n(int64(window))),
			Topo: rng.Intn(topos),
			Long: i%longEvery == 0,
			Seed: starts[rng.Intn(len(starts))],
		}
	}
	// Shuffle the long flags so long jobs land anywhere in the window.
	rng.Shuffle(n, func(i, j int) { out[i].Long, out[j].Long = out[j].Long, out[i].Long })
	sort.Slice(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}

// sinceDue is an open-loop request's latency: from when it was due, not
// from when the generator got round to sending it, so a stall that delays
// later sends is charged to them.
func sinceDue(windowStart time.Time, due time.Duration, done time.Time) time.Duration {
	return done.Sub(windowStart.Add(due))
}
