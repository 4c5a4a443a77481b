package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
	"phmse/internal/geom"
	"phmse/internal/molecule"
	"phmse/internal/server"
)

// The helix-serve workload: an open loop of small solves through client →
// router → two shards. Per-job solver work is small, so request encoding,
// admission, queue wait, the plan cache, status polling and the router hop
// are a large share of latency.
var (
	// helixAnchors picks the served topologies: one-base-pair helices with
	// this many anchor atoms. Two of them land on each shard's ring arcs.
	helixAnchors = []int{4, 5, 6, 7}
	// helixWindows are the offered loads in jobs/s and each one's share of
	// the measured time. They bracket the knee measured on a 2-CPU host:
	// the first two meet the latency limit; the third is at the knee, where
	// p90 is usually above the limit. The middle rate, where p50 and p90
	// are reported, gets the most time.
	helixWindows = []struct{ rate, share float64 }{{5, 0.1}, {10, 0.7}, {40, 0.2}}
	// helixStarts are the perturbation seeds jobs draw from: starts from
	// which every served topology converges to its reference. Some other
	// starts stall near a mirror-image optimum, and a workload must not
	// include operations that fail on correct code.
	helixStarts = []int64{1, 2, 5, 7, 8, 12, 13, 18, 19, 21, 23, 25, 41, 42, 43, 44}
)

const (
	helixBP      = 1
	helixSigma   = 0.4 // Å, starting-estimate perturbation of every job
	shortCycles  = 3   // cycle budget of a short job
	longCycles   = 20  // cycle budget of a long job
	longEvery    = 5   // one job in longEvery gets the long budget
	helixLimitMs = 250 // p90 latency limit, from due time
	midRate      = 1   // index into helixWindows of the rate p50/p90 are reported at
	pollGap      = 2 * time.Millisecond
	// Output bounds per job class: from helixStarts, a short solve ends
	// within 1.7 Å of the reference, and these topologies converge to
	// within 0.21 Å in about 20 cycles.
	shortRMSDBound = 2.5
	longRMSDBound  = 0.5
)

type topo struct {
	p     *molecule.Problem
	truth []geom.Vec3
	owner int
}

func helixTopos() []topo {
	out := make([]topo, len(helixAnchors))
	for i, k := range helixAnchors {
		p := molecule.WithAnchors(molecule.Helix(helixBP), k, 0.05)
		out[i] = topo{p: p, truth: p.TruePositions(), owner: ringOwner(len(shardNames), encode.TopologyHash(p))}
	}
	return out
}

func helixParams(a Arrival) encode.SolveParams {
	ps := encode.SolveParams{Mode: "hier", Perturb: helixSigma, Seed: a.Seed, MaxCycles: shortCycles, Tol: 1e-12}
	if a.Long {
		ps.MaxCycles = longCycles
	}
	return ps
}

// helixSetupOnce starts the cluster and warms each shard's plan cache with
// one short job per topology it owns.
func helixSetupOnce(r *run, hc *http.Client) (*cluster, []topo, time.Duration, error) {
	t0 := time.Now()
	topos := helixTopos()
	cl, err := startCluster([]server.Config{
		{MaxProcs: 1, MinTeam: 1, MaxTeam: 1, QueueDepth: 1024},
		{MaxProcs: 1, MinTeam: 1, MaxTeam: 1, QueueDepth: 1024},
	}, hc)
	if err != nil {
		return nil, nil, 0, err
	}
	ctx := context.Background()
	c := cl.client()
	used := make([]bool, len(cl.urls))
	for i, t := range topos {
		st, err := c.Submit(ctx, t.p, helixParams(Arrival{Seed: helixStarts[i]}))
		if err == nil {
			st, err = c.Wait(ctx, st.ID, pollGap)
		}
		if err != nil || st.State != encode.JobDone {
			cl.close()
			return nil, nil, 0, fmt.Errorf("warm-up job: state %q: %v", st.State, err)
		}
		if got := cl.shardIndex(st.Shard); got != t.owner {
			cl.close()
			return nil, nil, 0, fmt.Errorf("topology %d ran on shard %d, ring owner is %d", i, got, t.owner)
		}
		used[t.owner] = true
	}
	for i, u := range used {
		if !u {
			cl.close()
			return nil, nil, 0, fmt.Errorf("no topology lands on shard %d", i)
		}
	}
	d := time.Since(t0)
	r.tr.Add("harness.setup", 0, r.tr.NewOp(), t0, t0.Add(d))
	return cl, topos, d, nil
}

// jobOut is one open-loop job's record.
type jobOut struct {
	a         Arrival
	sent      time.Time // when the generator sent it
	submitted time.Time // when the submit call returned
	done      time.Time // when the result had been fetched
	id        string
	st        encode.JobStatus
	res       encode.SolutionDoc
	polls     int
	ok        bool
	err       string
	spans     []callSpan // client calls while polling, kept only when traced
}

// callSpan is a timed call whose span is recorded once its operation's
// root span exists.
type callSpan struct {
	name       string
	start, end time.Time
}

// window is one offered-rate window's outcome.
type window struct {
	rate  float64
	start time.Time
	len   time.Duration
	jobs  []jobOut
}

func (w window) latencies() []float64 {
	var out []float64
	for _, j := range w.jobs {
		if j.ok {
			out = append(out, ms(sinceDue(w.start, j.a.Due, j.done)))
		}
	}
	return out
}

// meetsLimit reports whether the window kept p90 within the limit, every
// job succeeded, and its backlog drained within the limit of its end.
func (w window) meetsLimit() bool {
	lat := w.latencies()
	if len(lat) != len(w.jobs) || len(lat) == 0 || percentile(lat, 0.9) > helixLimitMs {
		return false
	}
	last := w.start
	for _, j := range w.jobs {
		if j.done.After(last) {
			last = j.done
		}
	}
	return ms(last.Sub(w.start.Add(w.len))) <= helixLimitMs
}

// throughput is the window's completed jobs per second, from its start to
// its last completion: the offered rate while the service keeps up, its
// capacity once it does not.
func (w window) throughput() float64 {
	n, last := 0, w.start
	for _, j := range w.jobs {
		if j.ok {
			n++
			if j.done.After(last) {
				last = j.done
			}
		}
	}
	return float64(n) / last.Sub(w.start).Seconds()
}

// openLoop offers one window of load from two goroutines: this one polls
// outstanding jobs and fetches results, a second sends each job when it
// is due, whatever the state of earlier jobs.
func openLoop(r *run, tr *Tracer, c *client.Client, topos []topo, rate float64, length time.Duration, seed int64) window {
	ctx := context.Background()
	sched := makeSchedule(seed, rate, length, len(topos), longEvery, helixStarts)
	w := window{rate: rate, len: length, jobs: make([]jobOut, len(sched))}
	r.attempted += len(sched)
	ready := make(chan int, len(sched)) // one send per job, never blocks
	w.start = time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ready)
		for i, a := range sched {
			time.Sleep(time.Until(w.start.Add(a.Due)))
			j := &w.jobs[i]
			j.a, j.sent = a, time.Now()
			st, err := c.Submit(ctx, topos[a.Topo].p, helixParams(a))
			j.submitted = time.Now()
			if err != nil {
				j.err = err.Error()
			}
			j.id = st.ID
			ready <- i
		}
	}()

	var outstanding []int
	open := true
	for open || len(outstanding) > 0 {
		if len(outstanding) == 0 {
			i, more := <-ready
			if !more {
				break
			}
			outstanding = append(outstanding, i)
		}
	drain:
		for {
			select {
			case i, more := <-ready:
				if !more {
					open = false
					break drain
				}
				outstanding = append(outstanding, i)
			default:
				break drain
			}
		}
		finished := 0
		keep := outstanding[:0]
		for _, i := range outstanding {
			if pollJob(r, tr, c, topos, &w, i) {
				finished++
			} else {
				keep = append(keep, i)
			}
		}
		outstanding = keep
		if finished == 0 && len(outstanding) > 0 {
			time.Sleep(pollGap)
		}
	}
	wg.Wait()
	return w
}

// pollJob polls one job once; when it is finished it fetches and checks the
// result and reports true.
func pollJob(r *run, tr *Tracer, c *client.Client, topos []topo, w *window, i int) bool {
	ctx := context.Background()
	j := &w.jobs[i]
	if j.id == "" {
		r.fail("submit: %s", j.err)
		return true
	}
	t := time.Now()
	st, err := c.Status(ctx, j.id)
	j.polls++
	if tr != nil {
		j.spans = append(j.spans, callSpan{"client.poll", t, time.Now()})
	}
	if err != nil {
		r.fail("status %s: %v", j.id, err)
		return true
	}
	if !st.State.Terminal() {
		return false
	}
	j.st = st
	if st.State != encode.JobDone {
		r.fail("job %s ended %s: %s", j.id, st.State, st.Error)
		return true
	}
	t = time.Now()
	res, err := c.Result(ctx, j.id)
	j.done = time.Now()
	if tr != nil {
		j.spans = append(j.spans, callSpan{"client.result", t, j.done})
	}
	if err != nil {
		r.fail("result %s: %v", j.id, err)
		return true
	}
	j.res = res
	if err := checkHelix(res, topos[j.a.Topo], j.a.Long); err != nil {
		r.fail("job %s: %v", j.id, err)
		return true
	}
	j.ok = true
	return true
}

func checkHelix(res encode.SolutionDoc, t topo, long bool) error {
	if len(res.Positions) != len(t.truth) {
		return fmt.Errorf("result has %d positions, problem has %d atoms", len(res.Positions), len(t.truth))
	}
	pos := make([]geom.Vec3, len(res.Positions))
	for i, p := range res.Positions {
		pos[i] = p
	}
	if !finite(pos) {
		return fmt.Errorf("non-finite positions")
	}
	bound := shortRMSDBound
	want := shortCycles
	if long {
		bound, want = longRMSDBound, longCycles
	}
	if res.Cycles != want {
		return fmt.Errorf("job ran %d cycles, budget is %d", res.Cycles, want)
	}
	if d := molecule.RMSD(pos, t.truth); !(d <= bound) {
		return fmt.Errorf("RMSD %.3f Å exceeds the %.1f Å bound", d, bound)
	}
	return nil
}

func jobRMSD(j jobOut, topos []topo) float64 {
	pos := make([]geom.Vec3, len(j.res.Positions))
	for i, p := range j.res.Positions {
		pos[i] = p
	}
	return molecule.RMSD(pos, topos[j.a.Topo].truth)
}

func helixServe(r *run) error {
	// The cluster stands for four processes (client, router, two shards),
	// each of which would get nproc Go processors of its own. With nproc
	// in total, the two shards' solver goroutines can hold every processor
	// and each HTTP handler waits out Go's 10 ms preemption behind them;
	// with 4 × nproc the OS shares the CPUs among them as it would among
	// separate daemons. (posterior-churn has one job in flight at a time
	// and keeps the default.)
	runtime.GOMAXPROCS(4 * runtime.NumCPU())
	r.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	var cp *capture
	var rt http.RoundTripper
	if r.traced {
		cp = &capture{next: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
		rt = cp
	}
	var cl *cluster
	var topos []topo
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if cl != nil {
			cl.close()
		}
		var d time.Duration
		var err error
		cl, topos, d, err = helixSetupOnce(r, benchHTTPClient(rt))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer cl.close()
	c := cl.client()
	owners := make([]int, len(topos))
	for i, t := range topos {
		owners[i] = t.owner
	}
	lengths := make([]time.Duration, len(helixWindows))
	rates := make([]float64, len(helixWindows))
	for i, hw := range helixWindows {
		lengths[i] = time.Duration(hw.share * float64(r.seconds))
		rates[i] = hw.rate
	}
	r.meta["problem"] = map[string]any{
		"topologies": fmt.Sprintf("Helix(%d) with anchors %v", helixBP, helixAnchors), "atoms": len(topos[0].p.Atoms),
		"topology_owner_shard": owners, "short_cycles": shortCycles, "long_cycles": longCycles, "long_every": longEvery,
		"offered_rates_jobs_s": rates, "p90_limit_ms": helixLimitMs, "middle_rate_jobs_s": rates[midRate],
		"shards": len(cl.urls), "shard_max_procs": 1, "load_goroutines": 2, "load_connections": 2,
	}
	r.e2e["setup_s"] = median(setups)

	runtime.GC() // start measuring from the same heap state on every run
	if r.traced {
		return helixTraced(r, cl, cp, topos, lengths[midRate])
	}
	var windows []window
	for i, hw := range helixWindows {
		windows = append(windows, openLoop(r, nil, c, topos, hw.rate, lengths[i], r.seed*1000+int64(i)))
	}
	var rmsds []float64
	maxRate := 0.0
	for _, w := range windows {
		for _, j := range w.jobs {
			if j.ok {
				rmsds = append(rmsds, jobRMSD(j, topos))
			}
		}
		if w.meetsLimit() {
			maxRate = w.rate
		}
		lat := w.latencies()
		r.report(fmt.Sprintf("p50_ms@%g", w.rate), percentile(lat, 0.5), "ms")
		r.report(fmt.Sprintf("p90_ms@%g", w.rate), percentile(lat, 0.9), "ms")
		r.meta[fmt.Sprintf("samples@%g", w.rate)] = len(lat)
	}
	mid := windows[midRate].latencies()
	if q, ok := tailQuantile(len(mid)); !ok || q < 0.9 {
		return fmt.Errorf("only %d samples at the middle rate: p90 needs %d beyond it", len(mid), minBeyond)
	}
	r.e2e["p50_ms"] = percentile(mid, 0.5)
	r.e2e["tail_ms"] = percentile(mid, 0.9)
	r.e2e["ops_per_s"] = windows[len(windows)-1].throughput()
	r.e2e["rmsd_A"] = mean(rmsds)
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.report("setup_s", r.e2e["setup_s"], "s")
	r.report("peak_rss_mb", r.e2e["peak_rss_mb"], "MB")
	r.report("p50_ms", r.e2e["p50_ms"], "ms")
	r.report("p90_ms", r.e2e["tail_ms"], "ms")
	r.report("max_rate_jobs_s", maxRate, "jobs/s")
	return nil
}

// helixTraced runs the middle rate twice, untraced and then traced, and
// derives the per-layer metrics from the traced window.
func helixTraced(r *run, cl *cluster, cp *capture, topos []topo, length time.Duration) error {
	c := cl.client()
	rate := helixWindows[midRate].rate
	plain := openLoop(r, nil, c, topos, rate, length, r.seed*1000+midRate)

	snapBefore := shardSnaps(cl)
	rtBefore := cl.rt.Snapshot()
	m0 := readMem()
	cp.on.Store(true)
	stopBusy := sampleBusy(cl)
	tw := openLoop(r, r.tr, c, topos, rate, length, r.seed*1000+midRate)
	busy := stopBusy()
	cp.on.Store(false)
	m1 := readMem()
	snapAfter := shardSnaps(cl)
	rtAfter := cl.rt.Snapshot()

	var waits, runs, submits, late, perCycle []float64
	polls, hits, cycles, ridge, n := 0, 0, 0, 0, 0
	for _, j := range tw.jobs {
		if !j.ok {
			continue
		}
		n++
		sub, _ := time.Parse(time.RFC3339Nano, j.st.SubmittedAt)
		st, _ := time.Parse(time.RFC3339Nano, j.st.StartedAt)
		fin, _ := time.Parse(time.RFC3339Nano, j.st.FinishedAt)
		due := tw.start.Add(j.a.Due)
		op := r.tr.NewOp()
		root := r.tr.Add("harness.job", 0, op, due, j.done)
		r.tr.Add("harness.late", root, op, due, j.sent)
		r.tr.Add("client.submit", root, op, j.sent, j.submitted)
		r.tr.Add("sched.queue_wait", root, op, sub, st)
		r.tr.Add("server.run", root, op, st, fin)
		for _, cs := range j.spans {
			r.tr.Add(cs.name, root, op, cs.start, cs.end)
		}
		waits = append(waits, ms(st.Sub(sub)))
		runs = append(runs, ms(fin.Sub(st)))
		submits = append(submits, ms(j.submitted.Sub(j.sent)))
		late = append(late, ms(j.sent.Sub(due)))
		if j.st.Cycle > 0 {
			perCycle = append(perCycle, ms(fin.Sub(st))/float64(j.st.Cycle))
		}
		polls += j.polls
		cycles += j.st.Cycle
		if j.st.PlanCacheHit {
			hits++
		}
		if j.res.Diagnostics != nil {
			ridge += j.res.Diagnostics.RidgeRetries
		}
	}
	if n == 0 {
		return fmt.Errorf("no traced job succeeded")
	}
	fn := float64(n)
	r.layer["trace.overhead_frac"] = percentile(tw.latencies(), 0.5)/percentile(plain.latencies(), 0.5) - 1
	r.layer["sched.queue_wait_p50_ms"] = percentile(waits, 0.5)
	r.layer["sched.queue_wait_p90_ms"] = percentile(waits, 0.9)
	r.layer["sched.busy_frac"] = busy
	r.layer["server.run_ms"] = percentile(runs, 0.5)
	r.layer["server.submit_ms"] = percentile(submits, 0.5)
	r.layer["gen.late_p90_ms"] = percentile(late, 0.9)
	r.layer["client.polls_per_job"] = float64(polls) / fn
	r.layer["server.plan_cache_hit_frac"] = float64(hits) / fn
	r.layer["core.cycles"] = float64(cycles) / fn
	r.layer["core.cycle_ms"] = percentile(perCycle, 0.5)
	r.layer["filter.ridge_retries"] = float64(ridge)
	shardLayer(r, snapBefore, snapAfter, fn)
	r.memLayer(m0, m1, n)
	r.layer["router.retried"] = float64(rtAfter.Retried - rtBefore.Retried)
	r.layer["router.failed"] = float64(rtAfter.Failed - rtBefore.Failed)

	reqs, _ := cp.snapshot()
	requestLayer(r, reqs)

	for _, j := range tw.jobs {
		if j.ok {
			hop, err := routerHop(cl, j.id, cl.shardIndex(j.st.Shard))
			if err != nil {
				return err
			}
			r.layer["router.hop_ms"] = hop
			break
		}
	}

	r.skip("not observable from outside: the daemon builds estimators internally; its plan cache hides construction (see server.plan_cache_hit_frac)", "core.new_ms")
	r.skip("not observable from outside: the daemon builds the served trees internally; measured on ribo-solve",
		"hier.nodes", "hier.max_node_dim", "filter.batches_per_cycle")
	r.skip("measured on ribo-solve: kernel probes and the one-processor baseline are library-level",
		"mat.syrk_gflop_s", "mat.chol_gflop_s", "mat.syrk_flop_per_byte", "par.for_overhead_us", "par.speedup")
	r.skip("bypassed: helix-serve keeps no posteriors",
		"encode.posterior_bytes", "encode.posterior_encode_ms", "encode.posterior_decode_ms",
		"server.posterior_put_ms", "server.posterior_evictions",
		"router.repair_ms", "router.repair_bytes", "router.scanned_per_sweep")
	r.skip("no spans: the benchmark makes no direct calls into these layers on helix-serve",
		"selftime.molecule_s", "selftime.router_s", "selftime.encode_s", "selftime.mat_s", "selftime.par_s")
	r.meta["traced_jobs"] = n
	return nil
}

func shardSnaps(cl *cluster) []server.Metrics {
	out := make([]server.Metrics, len(cl.shards))
	for i, s := range cl.shards {
		out[i] = s.Snapshot()
	}
	return out
}

// shardLayer sets the scheduler and op-class metrics from the shards'
// metrics before and after an interval of n operations, and returns the
// posterior-store evictions in it.
func shardLayer(r *run, before, after []server.Metrics, n float64) (evicted int64) {
	var coalesced int64
	secs, flops := map[string]float64{}, map[string]float64{}
	for i := range after {
		coalesced += after[i].Scheduler.Coalesced - before[i].Scheduler.Coalesced
		evicted += after[i].Posteriors.Evicted - before[i].Posteriors.Evicted
		for k, v := range after[i].OpTimes.Seconds {
			secs[k] += v - before[i].OpTimes.Seconds[k]
		}
		for k, v := range after[i].OpTimes.Flops {
			flops[k] += v - before[i].OpTimes.Flops[k]
		}
	}
	r.layer["sched.coalesced"] = float64(coalesced)
	r.layer["mat.mm_s"] = secs["m-m"] / n
	r.layer["mat.mm_gflop"] = flops["m-m"] / n / 1e9
	r.layer["mat.chol_s"] = secs["chol"] / n
	r.layer["mat.sys_s"] = secs["sys"] / n
	r.layer["sparse.ds_s"] = secs["d-s"] / n
	r.layer["filter.mv_s"] = secs["m-v"] / n
	r.layer["filter.vec_s"] = secs["vec"] / n
	return evicted
}

// requestLayer re-times the daemon's request decoding on the solve
// requests the workload sent.
func requestLayer(r *run, reqs [][]byte) {
	var sizes, decodes []float64
	for _, b := range reqs {
		t := time.Now()
		if _, _, _, err := encode.ReadSolveRequest(bytes.NewReader(b)); err != nil {
			r.fail("re-decoding a captured request: %v", err)
			continue
		}
		decodes = append(decodes, ms(time.Since(t)))
		sizes = append(sizes, float64(len(b)))
	}
	r.layer["encode.request_bytes"] = mean(sizes)
	r.layer["encode.request_decode_ms"] = median(decodes)
}

// routerHop is the router's own cost: the median of one GET
// /v1/jobs/{id} through the router minus the median of the same GET sent
// straight to the job's shard, interleaved.
func routerHop(cl *cluster, id string, shard int) (float64, error) {
	if shard < 0 {
		return 0, fmt.Errorf("router hop: job %s has no known shard", id)
	}
	ctx := context.Background()
	via := cl.client()
	direct := client.New(cl.urls[shard], client.WithHTTPClient(cl.hc))
	var a, b []float64
	for i := 0; i < 200; i++ {
		for k, c := range []*client.Client{via, direct} {
			t := time.Now()
			if _, err := c.Status(ctx, id); err != nil {
				return 0, fmt.Errorf("router hop: %w", err)
			}
			if d := ms(time.Since(t)); k == 0 {
				a = append(a, d)
			} else {
				b = append(b, d)
			}
		}
	}
	return median(a) - median(b), nil
}
