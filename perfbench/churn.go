package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
	"phmse/internal/geom"
	"phmse/internal/mat"
	"phmse/internal/molecule"
	"phmse/internal/server"
)

// The posterior-churn workload: one closed-loop client refining, fetching
// and re-homing the full-covariance posteriors of two helix lineages, one
// owned by each shard. Bytes dominate instead of requests.
var (
	// churnAnchors picks the two lineages: four-base-pair helices with
	// this many anchor atoms, one on each shard's ring arcs.
	churnAnchors = []int{4, 6}
	// churnStarts are the lineages' cold-start perturbation seeds: starts
	// whose three-cycle cold solve lands about 1 Å from the reference
	// (others stall near a mirror image 3.5 Å away). Warm one-cycle
	// refines hold a lineage where its cold solve left it.
	churnStarts = []int64{5, 5}
	// churnDeck is the op mix: each block of ops is a seeded shuffle of
	// this deck, so every seed runs the same proportions.
	churnDeck = []string{"refine", "fetch", "rehome"}
)

const (
	churnBP           = 4
	churnSigma        = 0.4
	churnColdCycles   = 3
	churnRefineCycles = 1
	// churnStoreSlots sizes each shard's posterior budget: room for this
	// many lineage posteriors plus half of one, so every refine evicts
	// (and unlinks) an older posterior.
	churnStoreSlots = 2
	churnRMSDBound  = 1.5
	// churnTail is the tail percentile reported: about 100 ops fit in a
	// 40 s run, which keeps at least 10 samples beyond p75 but not p90.
	// With a third of the ops rehomes, p75 falls inside the rehome mode
	// and p50 inside the refine and fetch mode, not between them.
	churnTail = 0.75
	// churnRecords bounds each shard's retained job records. Each record
	// holds its solution (2 MB at 172 atoms); with the daemon's default of
	// 1024 they would pile up over a run and make later ops slower than
	// earlier ones. The one client never has more than one job in flight.
	churnRecords = 4
	// churnPoll is the refine's status-poll interval, a few percent of
	// the ~200 ms solve.
	churnPoll = 10 * time.Millisecond
)

type lineage struct {
	p          *molecule.Problem
	truth      []geom.Vec3
	owner      int
	structHash string
	latest     string
}

// posteriorBytes mirrors the store's accounting of one full posterior of n
// atoms (core.Posterior.Bytes): positions, the diagonal, the covariance.
func posteriorBytes(n int) int64 { return int64(24*n + 24*n + 72*n*n) }

func churnSetupOnce(r *run, hc *http.Client, dir string) (*cluster, []*lineage, time.Duration, error) {
	t0 := time.Now()
	lins := make([]*lineage, len(churnAnchors))
	for i, k := range churnAnchors {
		p := molecule.WithAnchors(molecule.Helix(churnBP), k, 0.05)
		lins[i] = &lineage{p: p, truth: p.TruePositions(), structHash: encode.StructureHash(p),
			owner: ringOwner(len(shardNames), encode.TopologyHash(p))}
	}
	budget := posteriorBytes(len(lins[0].p.Atoms)) * (2*churnStoreSlots + 1) / 2
	var cfgs []server.Config
	for i := range shardNames {
		cfgs = append(cfgs, server.Config{MaxProcs: 1, MinTeam: 1, MaxTeam: 1, MaxRecords: churnRecords, PosteriorBytes: budget,
			PosteriorDir: filepath.Join(dir, fmt.Sprintf("s%d", i+1))})
	}
	cl, err := startCluster(cfgs, hc)
	if err != nil {
		return nil, nil, 0, err
	}
	ctx := context.Background()
	c := cl.client()
	ids := make([]string, len(lins))
	for i, l := range lins {
		st, err := c.Submit(ctx, l.p, encode.SolveParams{Mode: "hier", Perturb: churnSigma, Seed: churnStarts[i],
			MaxCycles: churnColdCycles, Tol: 1e-12, KeepPosterior: true})
		if err != nil {
			cl.close()
			return nil, nil, 0, fmt.Errorf("cold solve: %w", err)
		}
		ids[i] = st.ID
	}
	for i, l := range lins {
		st, err := c.Wait(ctx, ids[i], churnPoll)
		if err != nil || st.State != encode.JobDone || !st.PosteriorKept || cl.shardIndex(st.Shard) != l.owner {
			cl.close()
			return nil, nil, 0, fmt.Errorf("cold solve %d: state %q kept %v shard %q (owner %d): %v",
				i, st.State, st.PosteriorKept, st.Shard, l.owner, err)
		}
		l.latest = st.ID
	}
	d := time.Since(t0)
	r.tr.Add("harness.setup", 0, r.tr.NewOp(), t0, t0.Add(d))
	return cl, lins, d, nil
}

// churnOp is one op's record.
type churnOp struct {
	kind   string
	lat    time.Duration
	rmsd   float64 // refine only
	ridge  int     // refine only
	st     encode.JobStatus
	submit time.Duration
	polls  int
	put    time.Duration // rehome only
	repair time.Duration
	report encode.RepairReport
	calls  []callSpan
	start  time.Time
	ok     bool
}

type churner struct {
	r    *run
	cl   *cluster
	c    *client.Client
	adm  *client.Admin
	lins []*lineage
	rng  *rand.Rand
	deck []string
}

// next runs the next op of the seeded mix.
func (ch *churner) next(traced bool) churnOp {
	if len(ch.deck) == 0 {
		ch.deck = append([]string(nil), churnDeck...)
		ch.rng.Shuffle(len(ch.deck), func(i, j int) { ch.deck[i], ch.deck[j] = ch.deck[j], ch.deck[i] })
	}
	kind := ch.deck[0]
	ch.deck = ch.deck[1:]
	l := ch.lins[ch.rng.Intn(len(ch.lins))]
	ch.r.attempted++
	op := churnOp{kind: kind, start: time.Now()}
	var err error
	switch kind {
	case "refine":
		err = ch.refine(&op, l, traced)
	case "fetch":
		_, err = ch.fetch(&op, l, traced)
	case "rehome":
		err = ch.rehome(&op, l, traced)
	}
	if err != nil {
		ch.r.fail("%s: %v", kind, err)
		return op
	}
	op.ok = true
	return op
}

// timed runs f and, when traced, keeps its interval as a span of the op.
func (op *churnOp) timed(traced bool, name string, f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	d := time.Since(t)
	if traced {
		op.calls = append(op.calls, callSpan{name, t, t.Add(d)})
	}
	return d, err
}

func (ch *churner) refine(op *churnOp, l *lineage, traced bool) error {
	ctx := context.Background()
	var st encode.JobStatus
	var err error
	op.submit, err = op.timed(traced, "client.submit", func() error {
		st, err = ch.c.WarmStart(ctx, l.p, encode.SolveParams{Mode: "hier",
			MaxCycles: churnRefineCycles, Tol: 1e-12, KeepPosterior: true}, l.latest)
		return err
	})
	if err != nil {
		return err
	}
	for !st.State.Terminal() {
		time.Sleep(churnPoll)
		if _, err := op.timed(traced, "client.poll", func() error {
			st, err = ch.c.Status(ctx, st.ID)
			return err
		}); err != nil {
			return err
		}
		op.polls++
	}
	var res encode.SolutionDoc
	if _, err := op.timed(traced, "client.result", func() error {
		res, err = ch.c.Result(ctx, st.ID)
		return err
	}); err != nil {
		return fmt.Errorf("job %s (%s): %w", st.ID, st.State, err)
	}
	op.lat = time.Since(op.start)
	op.st = st
	if st.State == encode.JobDone && st.PosteriorKept {
		// The lineage continues from what the service kept, even if a
		// check below fails, so one wrong output is counted once.
		defer func() { l.latest = st.ID }()
	}
	switch {
	case !st.PosteriorKept:
		return fmt.Errorf("job %s: posterior not kept", st.ID)
	case ch.cl.shardIndex(st.Shard) != l.owner:
		return fmt.Errorf("job %s ran on %s, not the lineage's owner", st.ID, st.Shard)
	case st.WarmStartFrom != l.latest:
		return fmt.Errorf("job %s warm-started from %q, want %q", st.ID, st.WarmStartFrom, l.latest)
	case res.Cycles != churnRefineCycles:
		return fmt.Errorf("job %s ran %d cycles, want %d", st.ID, res.Cycles, churnRefineCycles)
	}
	pos := make([]geom.Vec3, len(res.Positions))
	for i, p := range res.Positions {
		pos[i] = p
	}
	if len(pos) != len(l.truth) || !finite(pos) {
		return fmt.Errorf("job %s: %d positions, finite %v", st.ID, len(pos), finite(pos))
	}
	op.rmsd = molecule.RMSD(pos, l.truth)
	if res.Diagnostics != nil {
		op.ridge = res.Diagnostics.RidgeRetries
	}
	if !(op.rmsd <= churnRMSDBound) {
		return fmt.Errorf("job %s: RMSD %.3f Å exceeds the %.1f Å bound", st.ID, op.rmsd, churnRMSDBound)
	}
	return nil
}

// fetch downloads the lineage's latest full posterior through the router
// and checks it.
func (ch *churner) fetch(op *churnOp, l *lineage, traced bool) (encode.PosteriorDoc, error) {
	var doc encode.PosteriorDoc
	var err error
	if _, err = op.timed(traced, "client.posterior", func() error {
		doc, err = ch.c.Posterior(context.Background(), l.latest, true)
		return err
	}); err != nil {
		return doc, err
	}
	op.lat = time.Since(op.start)
	return doc, checkPosterior(doc, l)
}

func checkPosterior(doc encode.PosteriorDoc, l *lineage) error {
	if doc.Job != l.latest {
		return fmt.Errorf("posterior of %q served for %q", doc.Job, l.latest)
	}
	if doc.StructureHash != l.structHash {
		return fmt.Errorf("posterior %s: structure hash does not match its lineage", doc.Job)
	}
	pos, _, cov, err := doc.Decode()
	if err != nil {
		return err
	}
	if cov == nil || len(pos) != len(l.truth) || !finite(pos) {
		return fmt.Errorf("posterior %s: covariance present %v, %d positions", doc.Job, cov != nil, len(pos))
	}
	for i := 0; i < cov.Rows; i++ {
		for j := 0; j < i; j++ {
			if math.Float64bits(cov.At(i, j)) != math.Float64bits(cov.At(j, i)) {
				return fmt.Errorf("posterior %s: covariance not bitwise symmetric at (%d,%d)", doc.Job, i, j)
			}
		}
	}
	return nil
}

// rehome strands the lineage's latest posterior on the shard that does not
// own it, then has the router's repair sweep move it back, and checks that
// every lineage's posterior sits exactly at its ring owner.
func (ch *churner) rehome(op *churnOp, l *lineage, traced bool) error {
	doc, err := ch.fetch(op, l, traced)
	if err != nil {
		return err
	}
	var body []byte
	if _, err := op.timed(traced, "encode.marshal", func() error {
		body, err = json.Marshal(doc)
		return err
	}); err != nil {
		return err
	}
	ctx := context.Background()
	other := 1 - l.owner
	if op.put, err = op.timed(traced, "server.posterior_put", func() error {
		return ch.cl.putPosterior(ctx, other, l.latest, body)
	}); err != nil {
		return err
	}
	if op.repair, err = op.timed(traced, "router.repair", func() error {
		op.report, err = ch.adm.Repair(ctx)
		return err
	}); err != nil {
		return err
	}
	op.lat = time.Since(op.start)
	if op.report.Repaired < 1 || op.report.Failed != 0 {
		return fmt.Errorf("repair sweep repaired %d, failed %d", op.report.Repaired, op.report.Failed)
	}
	for _, ln := range ch.lins {
		held, err := ch.cl.posteriorHolders(ctx, ln.latest)
		if err != nil {
			return err
		}
		for s, n := range held {
			if want := b2i(s == ln.owner); n != want {
				return fmt.Errorf("posterior %s: shard %d holds %d copies, want %d", ln.latest, s, n, want)
			}
		}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func posteriorChurn(r *run) error {
	var cp *capture
	var rt http.RoundTripper
	if r.traced {
		cp = &capture{next: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
		rt = cp
	}
	var cl *cluster
	var lins []*lineage
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if cl != nil {
			cl.close()
		}
		var d time.Duration
		var err error
		cl, lins, d, err = churnSetupOnce(r, benchHTTPClient(rt), filepath.Join(r.scratch, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer cl.close()
	ch := &churner{r: r, cl: cl, c: cl.client(), adm: cl.admin(), lins: lins, rng: rand.New(rand.NewSource(r.seed))}
	owners := make([]int, len(lins))
	for i, l := range lins {
		owners[i] = l.owner
	}
	llc, _ := llcBytes()
	pb := posteriorBytes(len(lins[0].p.Atoms))
	r.meta["problem"] = map[string]any{
		"lineages": fmt.Sprintf("Helix(%d) with anchors %v", churnBP, churnAnchors), "atoms": len(lins[0].p.Atoms),
		"lineage_owner_shard": owners, "op_deck": churnDeck, "cold_cycles": churnColdCycles,
		"refine_cycles": churnRefineCycles, "posterior_store_bytes": pb,
		"posterior_store_over_llc": float64(pb) / float64(max(llc, 1)),
		"store_budget_posteriors":  float64(2*churnStoreSlots+1) / 2, "clients": 1,
	}
	r.e2e["setup_s"] = median(setups)

	runtime.GC() // start measuring from the same heap state on every run
	if r.traced {
		return churnTraced(r, ch, cp)
	}
	ops, elapsed := churnLoop(ch, r.seconds, minTailOps(churnTail), false)
	var all, rmsds []float64
	byKind := map[string][]float64{}
	for _, op := range ops {
		if !op.ok {
			continue
		}
		all = append(all, ms(op.lat))
		byKind[op.kind] = append(byKind[op.kind], ms(op.lat))
		if op.kind == "refine" {
			rmsds = append(rmsds, op.rmsd)
		}
	}
	r.e2e["p50_ms"] = percentile(all, 0.5)
	if q, ok := tailQuantile(len(all)); !ok || q < churnTail {
		return fmt.Errorf("only %d ops: p%g needs %d beyond it", len(all), 100*churnTail, minBeyond)
	}
	r.e2e["tail_ms"] = percentile(all, churnTail)
	r.e2e["ops_per_s"] = float64(len(all)) / elapsed.Seconds()
	r.e2e["rmsd_A"] = mean(rmsds)
	r.e2e["peak_rss_mb"] = peakRSSMB()
	r.meta["ops"] = len(ops)
	r.report("setup_s", r.e2e["setup_s"], "s")
	r.report("peak_rss_mb", r.e2e["peak_rss_mb"], "MB")
	r.report("ops_per_s", r.e2e["ops_per_s"], "1/s")
	for _, k := range []string{"refine", "fetch", "rehome"} {
		r.report(k+"_p50_ms", percentile(byKind[k], 0.5), "ms")
	}
	return nil
}

// churnLoop runs ops back to back for the given time, and on a host too
// slow to fit minOps in it, until minOps have run.
func churnLoop(ch *churner, d time.Duration, minOps int, traced bool) ([]churnOp, time.Duration) {
	var ops []churnOp
	start := time.Now()
	for time.Since(start) < d || len(ops) < minOps {
		ops = append(ops, ch.next(traced))
	}
	return ops, time.Since(start)
}

// churnTraced runs half the time untraced and half traced, and derives the
// per-layer metrics from the traced half.
func churnTraced(r *run, ch *churner, cp *capture) error {
	half := r.seconds / 2
	// Two decks at least, so every op kind runs in each half.
	plain, _ := churnLoop(ch, half, 2*len(churnDeck), false)
	snapBefore := shardSnaps(ch.cl)
	rtBefore := ch.cl.rt.Snapshot()
	m0 := readMem()
	cp.on.Store(true)
	stopBusy := sampleBusy(ch.cl)
	traced, _ := churnLoop(ch, half, 2*len(churnDeck), true)
	busy := stopBusy()
	cp.on.Store(false)
	m1 := readMem()
	snapAfter := shardSnaps(ch.cl)
	rtAfter := ch.cl.rt.Snapshot()

	lat := func(ops []churnOp) []float64 {
		var out []float64
		for _, op := range ops {
			if op.ok {
				out = append(out, ms(op.lat))
			}
		}
		return out
	}
	r.layer["trace.overhead_frac"] = percentile(lat(traced), 0.5)/percentile(lat(plain), 0.5) - 1
	var waits, runs, submits, perCycle, puts, repairs, repBytes, scanned []float64
	polls, hits, cycles, refines, ridge := 0, 0, 0, 0, 0
	for _, op := range traced {
		if !op.ok {
			continue
		}
		oid := r.tr.NewOp()
		root := r.tr.Add("harness."+op.kind, 0, oid, op.start, op.start.Add(op.lat))
		for _, cs := range op.calls {
			r.tr.Add(cs.name, root, oid, cs.start, cs.end)
		}
		switch op.kind {
		case "refine":
			sub, _ := time.Parse(time.RFC3339Nano, op.st.SubmittedAt)
			st, _ := time.Parse(time.RFC3339Nano, op.st.StartedAt)
			fin, _ := time.Parse(time.RFC3339Nano, op.st.FinishedAt)
			r.tr.Add("sched.queue_wait", root, oid, sub, st)
			r.tr.Add("server.run", root, oid, st, fin)
			refines++
			waits = append(waits, ms(st.Sub(sub)))
			runs = append(runs, ms(fin.Sub(st)))
			submits = append(submits, ms(op.submit))
			if op.st.Cycle > 0 {
				perCycle = append(perCycle, ms(fin.Sub(st))/float64(op.st.Cycle))
			}
			polls += op.polls
			cycles += op.st.Cycle
			ridge += op.ridge
			if op.st.PlanCacheHit {
				hits++
			}
		case "rehome":
			puts = append(puts, ms(op.put))
			repairs = append(repairs, ms(op.repair))
			repBytes = append(repBytes, float64(op.report.Bytes))
			scanned = append(scanned, float64(op.report.Scanned))
		}
	}
	if refines == 0 || len(puts) == 0 {
		return fmt.Errorf("traced half ran %d refines and %d rehomes; need both", refines, len(puts))
	}
	fr := float64(refines)
	r.layer["sched.queue_wait_p50_ms"] = percentile(waits, 0.5)
	r.layer["sched.queue_wait_p90_ms"] = percentile(waits, 0.9)
	r.layer["sched.busy_frac"] = busy
	r.layer["server.run_ms"] = percentile(runs, 0.5)
	r.layer["server.submit_ms"] = percentile(submits, 0.5)
	r.layer["client.polls_per_job"] = float64(polls) / fr
	r.layer["server.plan_cache_hit_frac"] = float64(hits) / fr
	r.layer["core.cycles"] = float64(cycles) / fr
	r.layer["core.cycle_ms"] = percentile(perCycle, 0.5)
	r.layer["filter.ridge_retries"] = float64(ridge)
	r.layer["server.posterior_put_ms"] = percentile(puts, 0.5)
	r.layer["router.repair_ms"] = percentile(repairs, 0.5)
	r.layer["router.repair_bytes"] = percentile(repBytes, 0.5)
	r.layer["router.scanned_per_sweep"] = percentile(scanned, 0.5)
	r.layer["router.retried"] = float64(rtAfter.Retried - rtBefore.Retried)
	r.layer["router.failed"] = float64(rtAfter.Failed - rtBefore.Failed)

	r.layer["server.posterior_evictions"] = float64(shardLayer(r, snapBefore, snapAfter, fr))
	l := ch.lins[0]
	hop, err := routerHop(ch.cl, l.latest, l.owner)
	if err != nil {
		return err
	}
	r.layer["router.hop_ms"] = hop
	r.memLayer(m0, m1, len(traced))

	reqs, posts := cp.snapshot()
	requestLayer(r, reqs)
	var postSizes, postDecodes, postEncodes []float64
	for _, b := range posts {
		t := time.Now()
		var doc encode.PosteriorDoc
		err := json.Unmarshal(b, &doc)
		var pos []geom.Vec3
		var coordVar []float64
		var cov *mat.Mat
		if err == nil {
			pos, coordVar, cov, err = doc.Decode()
		}
		if err != nil {
			r.fail("re-decoding a captured posterior: %v", err)
			continue
		}
		postDecodes = append(postDecodes, ms(time.Since(t)))
		postSizes = append(postSizes, float64(len(b)))
		t = time.Now()
		out := encode.NewPosteriorDoc(pos, coordVar, cov)
		if _, err := json.Marshal(out); err != nil {
			r.fail("re-encoding a captured posterior: %v", err)
			continue
		}
		postEncodes = append(postEncodes, ms(time.Since(t)))
	}
	r.layer["encode.posterior_bytes"] = mean(postSizes)
	r.layer["encode.posterior_decode_ms"] = median(postDecodes)
	r.layer["encode.posterior_encode_ms"] = median(postEncodes)
	if llc, _ := llcBytes(); llc > 0 {
		r.meta["posterior_wire_over_llc"] = mean(postSizes) / float64(llc)
	}

	r.skip("not observable from outside: the daemon builds estimators internally; its plan cache hides construction (see server.plan_cache_hit_frac)", "core.new_ms")
	r.skip("not observable from outside: the daemon builds the served trees internally; measured on ribo-solve",
		"hier.nodes", "hier.max_node_dim", "filter.batches_per_cycle")
	r.skip("measured on ribo-solve: kernel probes and the one-processor baseline are library-level",
		"mat.syrk_gflop_s", "mat.chol_gflop_s", "mat.syrk_flop_per_byte", "par.for_overhead_us", "par.speedup")
	r.skip("closed loop: no open-loop generator runs on this workload", "gen.late_p90_ms")
	r.skip("no spans: the benchmark makes no direct calls into these layers on posterior-churn",
		"selftime.molecule_s", "selftime.mat_s", "selftime.par_s", "selftime.core_s")
	r.meta["traced_ops"] = len(traced)
	return nil
}

// sampleBusy samples the shards' scheduler occupancy every 20 ms until the
// returned function is called; that function returns the mean share of
// processors in use.
func sampleBusy(cl *cluster) func() float64 {
	stop := make(chan struct{})
	var fracs []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				in, capy := 0, 0
				for _, s := range cl.shards {
					st := s.Snapshot().Scheduler
					in, capy = in+st.ProcsInUse, capy+st.ProcsCapacity
				}
				fracs = append(fracs, float64(in)/float64(capy))
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return mean(fracs)
	}
}
