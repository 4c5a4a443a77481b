// Command perfbench is the repository benchmark. It runs one workload in a
// single process — the library directly, or in-process phmsed shards behind
// an in-process phmse-router on loopback listeners — checks every output,
// and prints one JSON result as the last line of standard output.
//
//	perfbench --workload ribo-solve --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the same workload runs again with spans
// recorded at the benchmark's own calls into each module, and the result
// carries the per-layer metrics; the spans go to
// .bench_build/spans/<workload>-seed<n>.jsonl. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"phmse/internal/pool"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a reported metric and its unit. For a per-layer metric,
// moves names the end-to-end metric, and the workload, that the layer
// figure should move.
type metricSpec struct{ name, unit, moves string }

// endToEnd lists the gated metrics every workload reports with tracing
// off.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "rmsd_A", unit: "A"},
	{name: "p50_ms", unit: "ms"},
	{name: "tail_ms", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
}

// selfLayers are the layers whose span self time a traced run reports.
var selfLayers = []string{"harness", "molecule", "client", "router", "server", "sched", "core", "encode", "mat", "par"}

// What the per-layer metrics should move.
const (
	movesSolve   = "p50_ms (solve_s) on ribo-solve"
	movesOpClass = movesSolve + "; little on helix-serve"
	movesTree    = movesSolve + ", only through a decomposition or containment change"
	movesSched   = "tail_ms (p90_ms) and max_rate_jobs_s on helix-serve; refine_p50_ms on posterior-churn"
	movesPool    = "tail_ms (p90_ms) on helix-serve; ops_per_s on posterior-churn"
	movesServe   = "p50_ms on helix-serve and posterior-churn"
	movesRequest = "p50_ms on helix-serve; refine_p50_ms on posterior-churn"
	movesPost    = "refine_p50_ms, fetch_p50_ms and rehome_p50_ms on posterior-churn"
	movesRehome  = "rehome_p50_ms on posterior-churn"
	movesFailed  = "failed_frac on helix-serve and posterior-churn"
)

// perLayer lists the metrics a traced run reports. A metric a workload
// cannot produce is reported as 0 and named, with the reason, in the run's
// "unmeasured" lines.
var perLayer = func() []metricSpec {
	out := []metricSpec{
		{"core.new_ms", "ms", "setup_s on ribo-solve"},
		{"core.cycle_ms", "ms", movesSolve},
		{"core.cycles", "count", "refine_p50_ms on posterior-churn"},
		{"mat.mm_s", "s", movesOpClass}, {"mat.mm_gflop", "GFLOP", movesOpClass},
		{"mat.chol_s", "s", movesOpClass}, {"mat.sys_s", "s", movesOpClass},
		{"sparse.ds_s", "s", movesOpClass}, {"filter.mv_s", "s", movesOpClass}, {"filter.vec_s", "s", movesOpClass},
		{"mat.syrk_gflop_s", "GFLOP/s", movesSolve}, {"mat.chol_gflop_s", "GFLOP/s", movesSolve},
		{"mat.syrk_flop_per_byte", "flop/B", movesSolve},
		{"par.for_overhead_us", "us", movesSolve}, {"par.speedup", "x", movesSolve},
		{"hier.nodes", "count", movesTree}, {"hier.max_node_dim", "count", movesTree},
		{"filter.batches_per_cycle", "count", movesTree}, {"filter.ridge_retries", "count", movesTree},
		{"sched.queue_wait_p50_ms", "ms", movesSched}, {"sched.queue_wait_p90_ms", "ms", movesSched},
		{"sched.busy_frac", "frac", movesSched}, {"sched.coalesced", "count", movesSched},
		{"pool.hit_frac", "frac", movesPool}, {"alloc_mb_per_op", "MB", movesPool}, {"gc.pause_ms_per_s", "ms/s", movesPool},
		{"encode.request_bytes", "B", movesRequest}, {"encode.request_decode_ms", "ms", movesRequest},
		{"encode.posterior_bytes", "B", movesPost}, {"encode.posterior_encode_ms", "ms", movesPost},
		{"encode.posterior_decode_ms", "ms", movesPost},
		{"server.run_ms", "ms", movesServe}, {"server.submit_ms", "ms", movesServe},
		{"client.polls_per_job", "count", movesServe},
		{"server.plan_cache_hit_frac", "frac", movesRequest},
		{"server.posterior_put_ms", "ms", movesRehome},
		{"server.posterior_evictions", "count", "refine_p50_ms and rehome_p50_ms on posterior-churn"},
		{"router.hop_ms", "ms", movesServe},
		{"router.retried", "count", movesFailed}, {"router.failed", "count", movesFailed},
		{"router.repair_ms", "ms", movesRehome}, {"router.repair_bytes", "B", movesRehome},
		{"router.scanned_per_sweep", "count", movesRehome},
		{"gen.late_p90_ms", "ms", "nothing: it guards that latency measures the program, not the generator"},
		{"trace.overhead_frac", "frac", "nothing: it guards that the tracer does not distort the layer figures"},
	}
	for _, l := range selfLayers {
		out = append(out, metricSpec{"selftime." + l + "_s", "s", "p50_ms of this workload, through the layer's share of it"})
	}
	return out
}()

var workloads = map[string]func(*run) error{
	"ribo-solve":      riboSolve,
	"helix-serve":     helixServe,
	"posterior-churn": posteriorChurn,
}

// run is one benchmark invocation's state and results.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	scratch  string // per-run directory, removed at exit
	tr       *Tracer

	meta       map[string]any
	e2e        map[string]float64 // gated end-to-end metrics
	named      []string           // workload-specific end-to-end metrics, as report lines
	layer      map[string]float64
	unmeasured map[string]string // per-layer metric → why this workload cannot give it

	attempted, failed int
	checkErrs         []string
}

// fail records an operation that failed, was refused, or produced a wrong
// output.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.checkErrs) < 20 {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

// report adds a workload-specific end-to-end metric to the printed report.
func (r *run) report(name string, v float64, unit string) {
	r.named = append(r.named, fmt.Sprintf("%s %s = %.6g %s", r.workload, name, v, unit))
}

func (r *run) skip(reason string, names ...string) {
	for _, n := range names {
		r.unmeasured[n] = reason
	}
}

func main() {
	workload := flag.String("workload", "", "workload: ribo-solve, helix-serve or posterior-churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 40, "measured seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	if err := execute(*workload, fn, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errWrongOutput = errors.New("wrong or failed outputs")

func execute(workload string, fn func(*run) error, seed int64, seconds int, traced bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	scratch := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	r := &run{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second, traced: traced,
		scratch:    scratch,
		meta:       hostMeta(),
		e2e:        map[string]float64{},
		layer:      map[string]float64{},
		unmeasured: map[string]string{},
	}
	r.meta["workload"], r.meta["seed"], r.meta["seconds"], r.meta["trace"] = workload, seed, seconds, traced
	if traced {
		r.tr = newTracer()
	}
	total0, steal0 := cpuTimes()
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if total1, steal1 := cpuTimes(); total1 > total0 {
		r.meta["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if r.attempted == 0 {
		return fmt.Errorf("%s: no operations attempted", workload)
	}

	out := os.Stdout
	metaLine, _ := json.Marshal(r.meta)
	fmt.Fprintf(out, "meta %s\n", metaLine)
	for _, e := range r.checkErrs {
		fmt.Fprintf(out, "check-failed %s\n", e)
	}
	res := map[string]metric{}
	if traced {
		spans := r.tr.Spans()
		self := selfTimes(spans)
		for _, l := range selfLayers {
			if v, ok := self[l]; ok {
				r.layer["selftime."+l+"_s"] = v / 1000
			} else if _, skipped := r.unmeasured["selftime."+l+"_s"]; !skipped {
				r.unmeasured["selftime."+l+"_s"] = "no spans of this layer on this workload"
			}
		}
		path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := writeSpans(path, r.meta, spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(spans), path)
		for _, m := range perLayer {
			v, ok := r.layer[m.name]
			switch {
			case ok && !math.IsNaN(v) && !math.IsInf(v, 0):
				delete(r.unmeasured, m.name)
			case ok:
				r.unmeasured[m.name], v = "no samples in this run", 0
			default:
				if _, why := r.unmeasured[m.name]; !why {
					r.unmeasured[m.name] = "not measured on this workload"
				}
				v = 0
			}
			res[m.name] = metric{Value: v, Unit: m.unit}
			fmt.Fprintf(out, "layer %s %s = %.6g %s (should move: %s)\n", workload, m.name, v, m.unit, m.moves)
		}
		names := make([]string, 0, len(r.unmeasured))
		for n := range r.unmeasured {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "unmeasured %s %s: %s\n", workload, n, r.unmeasured[n])
		}
	} else {
		for _, line := range r.named {
			fmt.Fprintf(out, "e2e %s\n", line)
		}
		for _, m := range endToEnd {
			v, ok := r.e2e[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", workload, m.name)
			}
			res[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	fmt.Fprintf(out, "e2e %s failed_frac = %.6g frac (%d of %d ops)\n", workload,
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, res})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations: %w (first: %s)", workload, r.failed, r.attempted,
			errWrongOutput, strings.Join(r.checkErrs[:1], ""))
	}
	return nil
}

// memSnap is a point in the process's allocation, GC and workspace-pool
// history.
type memSnap struct {
	at         time.Time
	totalAlloc uint64
	pauseNs    uint64
	pool       pool.Stats
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{at: time.Now(), totalAlloc: m.TotalAlloc, pauseNs: m.PauseTotalNs, pool: pool.Snapshot()}
}

// memLayer sets the allocation-per-op, GC-pause-rate and pool hit-rate
// metrics for the interval between two snapshots.
func (r *run) memLayer(a, b memSnap, ops int) {
	if ops > 0 {
		r.layer["alloc_mb_per_op"] = float64(b.totalAlloc-a.totalAlloc) / float64(ops) / (1 << 20)
	}
	if secs := b.at.Sub(a.at).Seconds(); secs > 0 {
		r.layer["gc.pause_ms_per_s"] = float64(b.pauseNs-a.pauseNs) / 1e6 / secs
	}
	if gets := b.pool.Gets - a.pool.Gets; gets > 0 {
		r.layer["pool.hit_frac"] = float64(b.pool.Hits-a.pool.Hits) / float64(gets)
	}
}
