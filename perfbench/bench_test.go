package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mnemo"
	"mnemo/internal/core"
	"mnemo/internal/kvstore"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

func TestTailRuleNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p90    float64
		beyond int
		ok     bool
	}{
		{n: 10, p90: 9, beyond: 1},
		{n: 99, p90: 90, beyond: 9},
		{n: 100, p90: 90, beyond: 10, ok: true},
		{n: 250, p90: 225, beyond: 25, ok: true},
	} {
		xs := seq(tc.n)
		if got := quantile(xs, 0.9); got != tc.p90 {
			t.Errorf("n=%d: p90 %v, want %v", tc.n, got, tc.p90)
		}
		if got := beyond(xs, 0.9); got != tc.beyond {
			t.Errorf("n=%d: %d samples beyond p90, want %d", tc.n, got, tc.beyond)
		}
		if got := tailResolved(xs, 0.9); got != tc.ok {
			t.Errorf("n=%d: resolved %v, want %v", tc.n, got, tc.ok)
		}
	}
	// Ties at the percentile are not beyond it.
	ties := make([]float64, 100)
	for i := 95; i < 100; i++ {
		ties[i] = 1
	}
	if got := beyond(ties, 0.9); got != 5 {
		t.Errorf("ties: %d beyond, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "consultation", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNs: 70, EndNs: 80},
		{ID: 5, Parent: 4, Name: "d", StartNs: 75, EndNs: 90}, // runs past its parent
		{ID: 6, Name: "other root", StartNs: 0, EndNs: 5},
	}
	computeSelf(spans)
	want := map[int]int64{1: 100 - 50, 2: 20, 3: 30, 4: 10 - 5, 5: 15, 6: 5}
	for _, s := range spans {
		if s.SelfNs != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.SelfNs, want[s.ID])
		}
	}
	if got := perConsult([]span{{Consult: 1, Name: "x", EndNs: 3}, {Consult: 1, Name: "x", StartNs: 5, EndNs: 9}, {Consult: 2, Name: "x", EndNs: 1}}, "x"); !reflect.DeepEqual(got, map[int]int64{1: 7, 2: 1}) {
		t.Errorf("perConsult %v", got)
	}
	var nilTracer *tracer
	if id := nilTracer.start("x", 0, 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
}

func TestMetricNamesAndBenchmarkJSON(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := checkDefs(defs); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range []metricDef{
		{"_lead", "s", "lower"},
		{"has space", "s", "lower"},
		{"ünicode", "s", "lower"},
		{strings.Repeat("x", 65), "s", "lower"},
		{"ok", "sec onds", "lower"},
		{"ok", "s", "sideways"},
	} {
		if err := checkDefs([]metricDef{bad}); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	if err := checkDefs([]metricDef{{"a", "s", "lower"}, {"a", "s", "lower"}}); err == nil {
		t.Error("duplicate name accepted")
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v\nprogram %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v\nprogram %+v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
}

func TestBuildResultRequiresEveryMetric(t *testing.T) {
	vals := map[string]float64{}
	for _, d := range endToEnd {
		vals[d.Name] = 1.5
	}
	r, err := buildResult(endToEnd, vals, 4, 0)
	if err != nil || !r.Correct || len(r.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v, err %v", r, err)
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(r.line()), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 {
		t.Errorf("result keys %v", back)
	}
	delete(vals, "setup_s")
	if _, err := buildResult(endToEnd, vals, 4, 0); err == nil {
		t.Error("missing metric accepted")
	}
}

func TestChurnGeneratorIsSeedDeterministic(t *testing.T) {
	const keys, requests = 300, 10 * trace.FrameOps
	a, err := churnWorkload(7, keys, requests)
	if err != nil {
		t.Fatal(err)
	}
	b, err := churnWorkload(7, keys, requests)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Ops, b.Ops) || !reflect.DeepEqual(a.Dataset, b.Dataset) {
		t.Fatal("same seed, different trace")
	}
	c, err := churnWorkload(8, keys, requests)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("different seeds, same trace")
	}
	withDeletes := 0
	for lo := 0; lo < len(a.Ops); lo += trace.FrameOps {
		for _, op := range a.Ops[lo : lo+trace.FrameOps] {
			if op.Kind == kvstore.Delete {
				withDeletes++
				break
			}
		}
	}
	if withDeletes != 5 {
		t.Errorf("%d of 10 frames carry Deletes, want 5", withDeletes)
	}
}

// smallCell is a consultation small enough for a unit test.
func smallCell(t *testing.T) *cell {
	t.Helper()
	spec := ycsb.Trending(3)
	spec.Keys, spec.Requests = 400, 8000
	w, err := generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &cell{Name: "small", W: w, Opts: mnemo.Options{Seed: 3, Runs: 2, SLO: slo}, Policies: []string{"touch", "mnemot"}}
}

func TestConsultationRepeatsAndIsTraced(t *testing.T) {
	ctx := context.Background()
	c := smallCell(t)
	ref, err := consult(ctx, c, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(c, nil, ref); err != nil {
		t.Fatal(err)
	}
	if len(ref.Reports) != 2 || len(ref.Validation) != 2 || ref.simRequests() == 0 || len(ref.estErrors()) == 0 {
		t.Fatalf("outcome %d reports, %d validations, %d requests", len(ref.Reports), len(ref.Validation), ref.simRequests())
	}
	tr := newTracer()
	again, err := consult(ctx, c, tr, 1, mnemo.NewSink())
	if err != nil {
		t.Fatal(err)
	}
	if err := check(c, ref, again); err != nil {
		t.Fatalf("traced, instrumented repeat: %v", err)
	}
	computeSelf(tr.spans)
	vals := map[string]float64{}
	ledger(vals, tr.spans, nil, map[int]*outcome{1: again})
	if vals["core.stage_coverage"] < 0.9 || vals["core.measure_count"] != 1 || vals["core.validate_s"] <= 0 {
		t.Errorf("ledger %v", vals)
	}
}

func TestFailingOutputCheckRaisesFailedFrac(t *testing.T) {
	c := smallCell(t)
	ref, err := consult(context.Background(), c, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A consultation that drifts from its first answer on every other
	// call, and one that measures twice: both must count as failed.
	calls := 0
	drifting := func(_ context.Context, _ *cell, _ int, _ bool) (*outcome, float64, error) {
		calls++
		o := *ref
		if calls%2 == 0 {
			o.Validation = append([][]core.ValidationPoint(nil), ref.Validation...)
			o.Validation[0] = append([]core.ValidationPoint(nil), o.Validation[0]...)
			o.Validation[0][0].ThroughputErrPct += 1e-9
		}
		if calls == 5 {
			o.Measures = 2
		}
		return &o, 0, nil
	}
	var tl tally
	refs := map[*cell]*outcome{}
	samples, _ := loop(context.Background(), []*cell{c}, refs, 0, false, drifting, &tl)
	if len(samples) != 1 || tl.attempted != 1 || tl.failed != 0 {
		t.Fatalf("first call: %d samples, tally %+v", len(samples), tl)
	}
	for i := 0; i < 5; i++ {
		loop(context.Background(), []*cell{c}, refs, 0, false, drifting, &tl)
	}
	if tl.attempted != 6 || tl.failed != 4 {
		t.Fatalf("tally %+v, want 4 of 6 failed", tl)
	}
	r, err := buildResult([]metricDef{{"x", "s", "lower"}}, map[string]float64{"x": 1}, tl.attempted, tl.failed)
	if err != nil || r.Correct {
		t.Fatalf("result %+v with failures reads correct (err %v)", r, err)
	}

	adaptive := *c
	adaptive.Adaptive = true
	if err := check(&adaptive, nil, ref); err == nil {
		t.Error("adaptive cell without migration passed its check")
	}
}

func TestParseArgs(t *testing.T) {
	var sink strings.Builder
	cfg, err := parseArgs([]string{"--workload", "cluster", "--seed", "9", "--seconds", "3", "--trace", "1"}, &sink)
	if err != nil || cfg.workload != "cluster" || cfg.seed != 9 || cfg.seconds != 3 || !cfg.traced {
		t.Fatalf("config %+v, err %v", cfg, err)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "consult", "--trace", "2"},
		{"--workload", "consult", "--seconds", "0"},
		{"--workload", "consult", "extra"},
	} {
		if _, err := parseArgs(args, &sink); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	if code := run([]string{"--workload", "nope"}, &sink, &sink); code == 0 {
		t.Error("bad arguments exited 0")
	}
}

func TestLoopStopsAfterDeadline(t *testing.T) {
	c := &cell{Name: "fake"}
	o := &outcome{Measures: 1}
	fn := func(context.Context, *cell, int, bool) (*outcome, float64, error) {
		time.Sleep(2 * time.Millisecond)
		return o, 0, nil
	}
	var tl tally
	samples, elapsed := loop(context.Background(), []*cell{c}, map[*cell]*outcome{}, 20*time.Millisecond, true, fn, &tl)
	if elapsed < 20*time.Millisecond || len(samples) < 2 || tl.failed != 0 {
		t.Fatalf("%d samples in %v, tally %+v", len(samples), elapsed, tl)
	}
	if !samples[0].traced || samples[1].traced {
		t.Errorf("alternation: %v %v", samples[0].traced, samples[1].traced)
	}
}

// TestRunPrintsEveryMetric drives whole runs — untraced and traced, over
// the workloads whose layers the others do not reach — and checks the
// last line against the metric tables.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs paper-scale consultations")
	}
	for _, tc := range []struct {
		workload string
		trace    string
		defs     []metricDef
	}{
		{"drift_adaptive", "0", endToEnd},
		{"stream_churn", "1", perLayer},
		{"cluster", "1", perLayer},
	} {
		t.Run(tc.workload+"/trace"+tc.trace, func(t *testing.T) {
			var out, errs strings.Builder
			args := []string{"--workload", tc.workload, "--seed", "2", "--seconds", "1", "--trace", tc.trace, "--out", t.TempDir(), "--root", ".."}
			if code := run(args, &out, &errs); code != 0 {
				t.Fatalf("exit %d: %s", code, errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 || len(res.Metrics) != len(tc.defs) {
				t.Fatalf("result %+v\n%s", res, out.String())
			}
			for _, d := range tc.defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("metric %s: %+v", d.Name, m)
				}
			}
			if tc.trace == "1" && res.Metrics["core.stage_coverage"].Value < 0.9 {
				t.Errorf("stage coverage %v", res.Metrics["core.stage_coverage"].Value)
			}
		})
	}
}
