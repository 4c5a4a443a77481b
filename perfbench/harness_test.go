package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true}, // 10 samples above the 990th
		{999, 0.95, true},  // p99 would leave 9
		{200, 0.95, true},
		{199, 0.9, true},
		{100, 0.9, true}, // exactly 10 above the 90th
		{99, 0.75, true},
		{40, 0.75, true},
		{20, 0.5, true},
		{19, 0, false},
		{3, 0, false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d q=%v leaves %d beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestMinTailOps(t *testing.T) {
	for _, q := range []float64{0.5, 0.75, 0.9, 0.99} {
		n := minTailOps(q)
		if beyond(n, q) < minBeyond || beyond(n-1, q) >= minBeyond {
			t.Errorf("minTailOps(%v) = %d: %d beyond it, %d beyond with one fewer", q, n, beyond(n, q), beyond(n-1, q))
		}
	}
	if n := minTailOps(0.75); n != 40 {
		t.Errorf("minTailOps(0.75) = %d, want 40", n)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	starts := []int64{1, 2, 3}
	a := makeSchedule(7, 20, 8*time.Second, 4, 8, starts)
	b := makeSchedule(7, 20, 8*time.Second, 4, 8, starts)
	c := makeSchedule(8, 20, 8*time.Second, 4, 8, starts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for _, s := range [][]Arrival{a, c} {
		if len(s) != 160 {
			t.Fatalf("rate 20/s over 8 s gave %d arrivals, want exactly 160", len(s))
		}
		long := 0
		for i, x := range s {
			if x.Due < 0 || x.Due >= 8*time.Second || (i > 0 && x.Due < s[i-1].Due) {
				t.Fatalf("arrival %d due at %v: outside the window or out of order", i, x.Due)
			}
			if x.Long {
				long++
			}
		}
		if long != 20 {
			t.Fatalf("%d long jobs, want one in eight = 20", long)
		}
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	due := 100 * time.Millisecond
	sent := start.Add(150 * time.Millisecond) // the generator ran 50 ms late
	done := start.Add(200 * time.Millisecond)
	if got := sinceDue(start, due, done); got != 100*time.Millisecond {
		t.Fatalf("latency = %v, want 100ms from due time (not %v from send time)", got, done.Sub(sent))
	}
}

func TestSelfTimeSubtractsCoveredChildInterval(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "harness.job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "client.submit", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "server.run", Start: 2, End: 5},   // overlaps its sibling
		{ID: 4, Parent: 1, Name: "client.poll", Start: 8, End: 12}, // runs past its parent
		{ID: 5, Parent: 3, Name: "core.cycle", Start: 2, End: 4},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"harness": 10 - (4 + 2), // [1,5] and [8,10] covered
		"client":  2 + 4,
		"server":  3 - 2,
		"core":    2,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var tr *Tracer
	if id := tr.Add("core.solve", 0, tr.NewOp(), time.Now(), time.Now()); id != 0 || tr.Spans() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the workloads and metrics a run
// knows in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs", w.Name)
		}
	}
	check := func(kind string, declared []m, code []metricSpec) {
		if len(declared) != len(code) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(code))
		}
		for i := range code {
			if declared[i].Name != code[i].name || declared[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
