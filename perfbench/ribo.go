package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"phmse/internal/core"
	"phmse/internal/geom"
	"phmse/internal/hier"
	"phmse/internal/mat"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/trace"
)

// The ribo-solve workload: the paper's headline problem, solved through the
// library with no wire. The problem is fixed; the seed only moves the
// starting estimate.
const (
	riboProblemSeed = 1996
	riboSigma       = 0.4 // Å, starting-estimate perturbation
	// riboBudget is the fixed cycle budget of one solve. Tol is set below
	// reach, so every solve does identical work.
	riboBudget = 1
	riboTol    = 1e-12
	// riboRMSDBound is the accuracy guard: one cycle from σ = 0.4 Å
	// (≈ 0.69 Å RMSD) lands near 0.22 Å on every seed tried.
	riboRMSDBound = 0.35
	minSolves     = 3
	setupRepeats  = 5
)

type riboSetupOut struct {
	p    *molecule.Problem
	e    *core.Estimator
	init []geom.Vec3
}

// riboSetupOnce generates the problem, builds the estimator and draws the
// starting estimate.
func riboSetupOnce(r *run, cfg core.Config) (riboSetupOut, time.Duration, time.Duration, error) {
	t0 := time.Now()
	p := molecule.Ribo30S(riboProblemSeed)
	t1 := time.Now()
	e, err := core.New(p, cfg)
	if err != nil {
		return riboSetupOut{}, 0, 0, err
	}
	t2 := time.Now()
	init := molecule.Perturbed(p, riboSigma, r.seed)
	t3 := time.Now()
	root := r.tr.Add("harness.setup", 0, r.tr.NewOp(), t0, t3)
	r.tr.Add("molecule.generate", root, 0, t0, t1)
	r.tr.Add("core.new", root, 0, t1, t2)
	return riboSetupOut{p, e, init}, t3.Sub(t0), t2.Sub(t1), nil
}

func riboConfig(procs int) core.Config {
	return core.Config{Mode: core.Hierarchical, Procs: procs, MaxCycles: riboBudget, Tol: riboTol}
}

func riboSolve(r *run) error {
	nproc := runtime.NumCPU()
	var s riboSetupOut
	var setups, news []float64
	for i := 0; i < setupRepeats; i++ {
		out, d, dNew, err := riboSetupOnce(r, riboConfig(nproc))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s = out
		setups = append(setups, d.Seconds())
		news = append(news, ms(dNew))
	}
	truth := s.p.TruePositions()
	r.meta["problem"] = map[string]any{
		"name": s.p.Name, "atoms": len(s.p.Atoms), "scalar_constraints": s.p.ScalarDim(),
		"tree_nodes": s.e.Root().Count(), "root_state_dim": s.e.Root().StateDim(),
		"procs": nproc, "cycle_budget": riboBudget, "perturb_sigma_A": riboSigma,
		"initial_rmsd_A": molecule.RMSD(s.init, truth),
	}
	r.e2e["setup_s"] = median(setups)

	// solve runs one fixed-budget solve and checks it. Successive solves
	// start from successive perturbations, so the reported RMSD averages
	// over several starts. Each starts from a collected heap, so neither
	// its time nor the peak RSS depends on where the previous solve's
	// ~150 MB of garbage left the collector.
	k := int64(0)
	solve := func(e *core.Estimator) (time.Duration, *core.Solution) {
		r.attempted++
		init := s.init
		if k > 0 {
			init = molecule.Perturbed(s.p, riboSigma, r.seed*1000+k)
		}
		k++
		runtime.GC()
		t := time.Now()
		sol, err := e.Solve(init)
		d := time.Since(t)
		if err != nil {
			r.fail("solve: %v", err)
			return d, nil
		}
		if err := checkRibo(sol, truth); err != nil {
			r.fail("%v", err)
			return d, nil
		}
		return d, sol
	}

	if !r.traced {
		var times, rmsds []float64
		start := time.Now()
		for len(times) < minSolves || time.Since(start) < r.seconds {
			d, sol := solve(s.e)
			times = append(times, ms(d))
			if sol != nil {
				rmsds = append(rmsds, molecule.RMSD(sol.Positions, truth))
			}
		}
		solveSum := 0.0
		for _, t := range times {
			solveSum += t / 1000
		}
		r.e2e["p50_ms"] = median(times)
		r.e2e["tail_ms"] = percentile(times, 1) // too few solves for a tail percentile
		r.e2e["ops_per_s"] = float64(riboBudget*len(times)) / solveSum
		r.e2e["rmsd_A"] = mean(rmsds)
		r.e2e["peak_rss_mb"] = peakRSSMB()
		r.report("setup_s", r.e2e["setup_s"], "s")
		r.report("peak_rss_mb", r.e2e["peak_rss_mb"], "MB")
		r.report("solve_s", r.e2e["p50_ms"]/1000, "s")
		r.report("rmsd_A", r.e2e["rmsd_A"], "A")
		r.meta["solves"] = len(times)
		return nil
	}
	return riboTraced(r, s, news, solve)
}

// riboTraced measures the per-layer metrics: traced solves alternate with
// untraced ones (after one untraced warm-up solve) so their difference is
// the tracing overhead, then a one-processor solve gives the parallel
// speed-up and the kernel probes run at the root node's shape.
func riboTraced(r *run, s riboSetupOut, news []float64, solve func(*core.Estimator) (time.Duration, *core.Solution)) error {
	nproc := runtime.NumCPU()
	rec := &trace.Collector{}
	var cycleMs []float64
	var marks []time.Time // solve start, then one mark per completed cycle
	cfg := riboConfig(nproc)
	cfg.Recorder = rec
	cfg.OnCycle = func(int, float64) { marks = append(marks, time.Now()) }
	eT, err := core.New(s.p, cfg)
	if err != nil {
		return err
	}

	solve(s.e) // warm-up, untimed
	var plain, traced []float64
	cycles, ridge := 0, 0
	m0 := readMem()
	start := time.Now()
	for len(traced) < 2 || time.Since(start) < r.seconds {
		marks = append(marks[:0], time.Now())
		d, sol := solve(eT)
		op := r.tr.NewOp()
		parent := r.tr.Add("core.solve", 0, op, marks[0], marks[0].Add(d))
		for i := 1; i < len(marks); i++ {
			r.tr.Add("core.cycle", parent, op, marks[i-1], marks[i])
			cycleMs = append(cycleMs, ms(marks[i].Sub(marks[i-1])))
		}
		traced = append(traced, ms(d))
		if sol != nil {
			cycles += sol.Cycles
			ridge += sol.Diagnostics.RidgeRetries
		}
		d, _ = solve(s.e)
		plain = append(plain, ms(d))
	}
	m1 := readMem()
	n := float64(len(traced))

	times, flops := rec.Times(), rec.Flops()
	r.layer["core.new_ms"] = median(news)
	r.layer["core.cycle_ms"] = median(cycleMs)
	r.layer["core.cycles"] = float64(cycles) / n
	r.layer["mat.mm_s"] = times[trace.MatMat] / n
	r.layer["mat.mm_gflop"] = flops[trace.MatMat] / n / 1e9
	r.layer["mat.chol_s"] = times[trace.Chol] / n
	r.layer["mat.sys_s"] = times[trace.Solve] / n
	r.layer["sparse.ds_s"] = times[trace.DenseSparse] / n
	r.layer["filter.mv_s"] = times[trace.MatVec] / n
	r.layer["filter.vec_s"] = times[trace.VecOp] / n
	r.layer["filter.ridge_retries"] = float64(ridge)
	r.layer["trace.overhead_frac"] = median(traced)/median(plain) - 1
	r.memLayer(m0, m1, len(traced)+len(plain))

	root := s.e.Root()
	maxDim, batches := 0, 0
	root.Walk(func(nd *hier.Node) {
		maxDim = max(maxDim, nd.StateDim())
		batches += len(nd.Batches())
	})
	r.layer["hier.nodes"] = float64(root.Count())
	r.layer["hier.max_node_dim"] = float64(maxDim)
	r.layer["filter.batches_per_cycle"] = float64(batches)

	// The one-processor baseline of the same solve.
	e1, err := core.New(s.p, riboConfig(1))
	if err != nil {
		return err
	}
	t := time.Now()
	d1, _ := solve(e1)
	r.tr.Add("core.solve_procs1", 0, r.tr.NewOp(), t, t.Add(d1))
	r.layer["par.speedup"] = ms(d1) / median(plain)

	kernelProbes(r, root.StateDim(), nproc)
	r.skip("bypassed: ribo-solve calls the library directly, with no scheduler, wire, daemon or router",
		"sched.queue_wait_p50_ms", "sched.queue_wait_p90_ms", "sched.busy_frac", "sched.coalesced",
		"encode.request_bytes", "encode.request_decode_ms", "encode.posterior_bytes",
		"encode.posterior_encode_ms", "encode.posterior_decode_ms",
		"server.run_ms", "server.submit_ms", "client.polls_per_job", "server.plan_cache_hit_frac",
		"server.posterior_put_ms", "server.posterior_evictions",
		"router.hop_ms", "router.retried", "router.failed", "router.repair_ms", "router.repair_bytes",
		"router.scanned_per_sweep", "gen.late_p90_ms",
		"selftime.client_s", "selftime.router_s", "selftime.server_s", "selftime.sched_s", "selftime.encode_s")
	return nil
}

func checkRibo(sol *core.Solution, truth []geom.Vec3) error {
	if sol.Cycles != riboBudget {
		return fmt.Errorf("solve ran %d cycles, budget is %d", sol.Cycles, riboBudget)
	}
	if !finite(sol.Positions) {
		return fmt.Errorf("solve produced non-finite positions")
	}
	if d := molecule.RMSD(sol.Positions, truth); !(d <= riboRMSDBound) {
		return fmt.Errorf("solve RMSD %.4f Å exceeds the %.2f Å bound", d, riboRMSDBound)
	}
	return nil
}

func finite(pos []geom.Vec3) bool {
	for _, p := range pos {
		for _, c := range p {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
	}
	return true
}

// kernelProbes times the m-m and chol kernels and the team fork-join at the
// shapes the solve uses: the symmetric rank-m update of the root node's
// n×n covariance, the m×m innovation factorization, and an empty Team.For.
func kernelProbes(r *run, n, nproc int) {
	const m = 16 // the solver's default batch dimension
	team := par.NewTeam(nproc)
	rng := rand.New(rand.NewSource(r.seed))
	op := r.tr.NewOp()

	c := mat.New(n, n)
	a := mat.New(n, m)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	var syrk []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		mat.SyrkSubPar(team, c, a)
		syrk = append(syrk, time.Since(t).Seconds())
		r.tr.Add("mat.syrk_probe", 0, op, t, time.Now())
	}
	fn, fm := float64(n), float64(m)
	syrkFlops := fn * (fn + 1) * fm
	// Bytes from array sizes: the lower triangle of C read and written once,
	// A read once.
	syrkBytes := 8 * (fn*(fn+1) + fn*fm)
	r.layer["mat.syrk_gflop_s"] = syrkFlops / median(syrk) / 1e9
	r.layer["mat.syrk_flop_per_byte"] = syrkFlops / syrkBytes
	arrayBytes := int64(8 * (n*n + n*m))
	llc, _ := llcBytes()
	r.meta["syrk_probe"] = map[string]any{
		"n": n, "m": m, "flop_per_byte_from": "array sizes, not measured traffic",
		"array_bytes": arrayBytes, "llc_bytes": llc, "array_over_llc": float64(arrayBytes) / float64(max(llc, 1)),
	}

	s0 := mat.New(m, m)
	g := mat.New(m, m)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	mat.MulNT(s0, g, g)
	for i := 0; i < m; i++ {
		s0.Set(i, i, s0.At(i, i)+fm)
	}
	s := mat.New(m, m)
	const reps = 20000
	t := time.Now()
	for i := 0; i < reps; i++ {
		copy(s.Data, s0.Data)
	}
	copyTime := time.Since(t)
	t = time.Now()
	for i := 0; i < reps; i++ {
		copy(s.Data, s0.Data)
		if err := mat.CholeskyPar(team, s); err != nil {
			r.fail("chol probe: %v", err)
			return
		}
	}
	cholTime := time.Since(t) - copyTime
	r.tr.Add("mat.chol_probe", 0, op, t, time.Now())
	r.layer["mat.chol_gflop_s"] = reps * fm * fm * fm / 3 / cholTime.Seconds() / 1e9

	t = time.Now()
	for i := 0; i < reps; i++ {
		team.For(nproc, func(lo, hi int) {})
	}
	forTime := time.Since(t)
	r.tr.Add("par.for_probe", 0, op, t, time.Now())
	r.layer["par.for_overhead_us"] = float64(forTime.Microseconds()) / reps
}
