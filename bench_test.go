// Benchmarks: one per table and figure of the paper's evaluation, plus
// the DESIGN.md §6 ablations. Each benchmark runs the corresponding
// experiment end to end at the Quick scale (1 000 keys × 10 000 requests,
// 10× below the paper) so `go test -bench=.` finishes in minutes; the
// full-scale regeneration is `go run ./cmd/mnemo-bench`.
//
// Reported custom metrics carry the experiment's headline number (e.g.
// median estimate error %, advised cost factor) so a bench run doubles as
// a regression check on the reproduced results.
package mnemo_test

import (
	"context"
	"testing"
	"time"

	"mnemo"
	"mnemo/internal/core"
	"mnemo/internal/experiments"
	"mnemo/internal/server"
)

const benchSeed = 42

var benchScale = experiments.Quick

func BenchmarkFig1CloudMemoryCostShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			lo, hi := 1.0, 0.0
			for _, s := range r.Shares {
				if s.MemoryShare < lo {
					lo = s.MemoryShare
				}
				if s.MemoryShare > hi {
					hi = s.MemoryShare
				}
			}
			b.ReportMetric(lo*100, "min_share_%")
			b.ReportMetric(hi*100, "max_share_%")
		}
	}
}

func BenchmarkTable1MemoryCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if i == 0 {
			b.ReportMetric(r.LatencyFactor(), "latency_factor")
			b.ReportMetric(r.BandwidthFactor(), "bandwidth_factor")
		}
	}
}

func BenchmarkTable2CostBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Rows[2].CostReduction, "worst_case_R")
		}
	}
}

func BenchmarkFig3KeyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchScale, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4SizeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig4(benchSeed)
	}
}

func BenchmarkFig5aKeyDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5a(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			c := r.Curves[0] // trending
			b.ReportMetric(c.MeasTput[len(c.MeasTput)-1]/c.MeasTput[0], "trending_fast_over_slow")
		}
	}
}

func BenchmarkFig5bReadWriteRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5b(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ratio := func(c *experiments.CurveComparison) float64 {
				return c.MeasTput[len(c.MeasTput)-1] / c.MeasTput[0]
			}
			b.ReportMetric(ratio(r.Curves[0]), "readonly_gain")
			b.ReportMetric(ratio(r.Curves[1]), "writeheavy_gain")
		}
	}
}

func BenchmarkFig5cRecordSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5c(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ratio := func(c *experiments.CurveComparison) float64 {
				return c.MeasTput[len(c.MeasTput)-1] / c.MeasTput[0]
			}
			b.ReportMetric(ratio(r.Curves[0]), "100KB_gain")
			b.ReportMetric(ratio(r.Curves[2]), "1KB_gain")
		}
	}
}

func BenchmarkFig8aEstimateError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8a(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.OverallMedianPct, "median_err_%")
		}
	}
}

func BenchmarkFig8bStoreComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8b(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Slowdowns[server.RedisLike.String()], "redis_slowdown")
			b.ReportMetric(r.Slowdowns[server.MemcachedLike.String()], "memcached_slowdown")
			b.ReportMetric(r.Slowdowns[server.DynamoLike.String()], "dynamo_slowdown")
		}
	}
}

func BenchmarkFig8cAvgLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8cde(benchScale, server.RedisLike, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.AvgErrMedianPct, "avg_latency_err_%")
		}
	}
}

func BenchmarkFig8dTailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8cde(benchScale, server.DynamoLike, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(r.Cost) - 1
			b.ReportMetric(r.P95Ns[last]/1000, "fastmem_p95_us")
			b.ReportMetric(r.P99Ns[last]/1000, "fastmem_p99_us")
		}
	}
}

func BenchmarkFig8fMnemoT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8f(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.TieredGainPct, "tiered_gain_%")
			b.ReportMetric(r.MnemoTMedianErrPct, "mnemot_err_%")
		}
	}
}

func BenchmarkFig9CostReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Cost("trending", server.RedisLike.String()), "redis_trending_cost")
			b.ReportMetric(r.Cost("news_feed", server.RedisLike.String()), "redis_newsfeed_cost")
			b.ReportMetric(r.Cost("trending", server.DynamoLike.String()), "dynamo_trending_cost")
		}
	}
}

func BenchmarkTable4ProfilingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			mnemoT := r.Reports[0].Total().Seconds()
			instr := r.Reports[1].Total().Seconds()
			b.ReportMetric(instr/mnemoT, "instrumented_over_mnemot")
		}
	}
}

func BenchmarkDownsampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Downsample(benchScale, benchSeed, []int{2, 5, 10})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.FullCost, "full_advised_cost")
			b.ReportMetric(r.Rows[len(r.Rows)-1].AdvisedCost, "ds10_advised_cost")
		}
	}
}

func BenchmarkAblationLLC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationLLC(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.WithLLC.MedianErrPct, "with_llc_err_%")
			b.ReportMetric(r.WithoutLLC.MedianErrPct, "no_llc_err_%")
		}
	}
}

func BenchmarkAblationNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationNoise(benchScale, benchSeed, []float64{0, 0.02, 0.05})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Rows[0].MedianErrPct, "sigma0_err_%")
			b.ReportMetric(r.Rows[2].MedianErrPct, "sigma05_err_%")
		}
	}
}

func BenchmarkAblationKnapsack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationKnapsack(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.GreedyCoverage/r.ExactCoverage, "greedy_over_exact")
		}
	}
}

func BenchmarkExtTechnologySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtTech(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if row, ok := r.Row("OptaneDC"); ok {
				b.ReportMetric(row.AdvisedCost, "optane_cost")
			}
			if row, ok := r.Row("CXL-DRAM"); ok {
				b.ReportMetric(row.Slowdown, "cxl_slowdown")
			}
		}
	}
}

func BenchmarkYCSBCoreWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.YCSBCore(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Cost("ycsb_c", server.RedisLike.String()), "ycsbc_redis_cost")
		}
	}
}

func BenchmarkExtTailEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtTails(benchScale, server.RedisLike, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.MedianP95ErrPct, "p95_err_%")
			b.ReportMetric(r.MedianP99ErrPct, "p99_err_%")
		}
	}
}

func BenchmarkModeBExternalTiering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ModeB(benchScale, benchSeed, []int{1, 1024})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.MnemoTAdvisedCost, "mnemot_cost")
			b.ReportMetric(r.Rows[len(r.Rows)-1].AdvisedCost, "sampled_cost")
		}
	}
}

func BenchmarkAblationSizeAware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSizeAware(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.MixedGlobalErrPct, "mixed_global_err_%")
			b.ReportMetric(r.MixedSizeAwareErrPct, "mixed_sizeaware_err_%")
		}
	}
}

func BenchmarkAblationAnchor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationAnchor(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.FastAnchorMedianErrPct, "fast_anchor_err_%")
			b.ReportMetric(r.SlowAnchorMedianErrPct, "slow_anchor_err_%")
		}
	}
}

// BenchmarkProfileE2E is the perf ledger's end-to-end entry: one
// iteration profiles 3 Quick-scale workloads × 3 engines through a full
// Session (Measure → Analyze → Estimate → Advise → Place) and then
// measures the Fig 8a validation points, every execution the mean of 3
// runs. ns/op, B/op and allocs/op are what a whole consultation costs;
// measure_ms and validate_ms split the wall time between the baseline
// and validation replays.
func BenchmarkProfileE2E(b *testing.B) {
	ctx := context.Background()
	var ws []*mnemo.Workload
	for _, name := range []string{"trending", "edit_thumbnail", "news_feed"} {
		w, err := mnemo.WorkloadByNameSized(name, benchSeed, benchScale.Keys, benchScale.Requests)
		if err != nil {
			b.Fatal(err)
		}
		w.Packed()
		ws = append(ws, w)
	}
	pol, err := mnemo.PolicyByName("mnemot", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	var measure, validate time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			for _, e := range mnemo.Engines() {
				sess, err := mnemo.NewSession(w, mnemo.Options{Store: e, Seed: benchSeed, Runs: 3})
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if _, err := sess.Measure(ctx); err != nil {
					b.Fatal(err)
				}
				measure += time.Since(start)
				rep, err := sess.Run(ctx, pol, 0.10)
				if err != nil {
					b.Fatal(err)
				}
				start = time.Now()
				if _, err := core.Validate(ctx, sess.Config(), w, rep.Curve, rep.Ordering, 6); err != nil {
					b.Fatal(err)
				}
				validate += time.Since(start)
			}
		}
	}
	b.ReportMetric(measure.Seconds()*1e3/float64(b.N), "measure_ms")
	b.ReportMetric(validate.Seconds()*1e3/float64(b.N), "validate_ms")
}
