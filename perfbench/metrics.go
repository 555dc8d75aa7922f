package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric. The tables below are the
// benchmark's contract with BENCHMARK.json (a test keeps the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the untraced run's metrics: what a user of the consultant
// sees. Host times carry the machine's noise; est_err_* are simulated
// and repeat exactly under a fixed seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"profile_p50_s", "s", "lower"},
	{"profile_p90_s", "s", "lower"},
	{"sim_mreq_per_s", "Mreq/s", "higher"},
	{"alloc_mb_per_profile", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"est_err_p50_pct", "%", "lower"},
	{"est_err_max_pct", "%", "lower"},
}

// perLayer are the traced run's metrics, one or more per module the
// consultation passes through. README.md maps each to the end-to-end
// metric and workload it should move.
var perLayer = []metricDef{
	{"core.measure_s", "s", "lower"},
	{"core.validate_s", "s", "lower"},
	{"core.analyze_ms", "ms", "lower"},
	{"core.estimate_ms", "ms", "lower"},
	{"core.place_ms", "ms", "lower"},
	{"core.measure_count", "count", "lower"},
	{"core.stage_coverage", "ratio", "higher"},
	{"client.run_ns_per_req", "ns", "lower"},
	{"client.driver_ns_per_req", "ns", "lower"},
	{"client.execute_ms", "ms", "lower"},
	{"client.epochs", "count", "higher"},
	{"client.moves", "count", "lower"},
	{"client.migrated_mb", "MB", "lower"},
	{"client.adaptive_gain_pct", "%", "higher"},
	{"server.serve_ns_per_req", "ns", "lower"},
	{"server.table_build_ms", "ms", "lower"},
	{"server.reset_us", "us", "lower"},
	{"server.noise_ns_per_draw", "ns", "lower"},
	{"server.doindex_ns_per_req", "ns", "lower"},
	{"server.load_ms", "ms", "lower"},
	{"server.loads", "count", "lower"},
	{"server.batched_req_frac", "ratio", "higher"},
	{"server.apply_moves_ms", "ms", "lower"},
	{"server.moved_records", "count", "lower"},
	{"memsim.llc_access_ns", "ns", "lower"},
	{"memsim.llc_hit_rate", "ratio", "higher"},
	{"stats.hist_add_ns", "ns", "lower"},
	{"trace.write_s", "s", "lower"},
	{"trace.frame_us", "us", "lower"},
	{"trace.decode_mb_per_s", "MB/s", "higher"},
	{"trace.frames", "count", "lower"},
	{"shard.split_ms", "ms", "lower"},
	{"shard.max_over_mean_req", "ratio", "lower"},
	{"shard.parallel_eff", "ratio", "higher"},
	{"registry.order_ms.touch", "ms", "lower"},
	{"registry.order_ms.mnemot", "ms", "lower"},
	{"registry.order_ms.adaptive-freq", "ms", "lower"},
	{"pool.validate_speedup", "ratio", "higher"},
	{"ycsb.generate_s", "s", "lower"},
	{"runtime.gc_cycles_per_profile", "count", "lower"},
	{"runtime.gc_pause_ms_per_profile", "ms", "lower"},
	{"bench.profile_p50_traced_s", "s", "lower"},
	{"bench.trace_overhead_s", "s", "lower"},
	{"bench.samples", "count", "higher"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs rejects a metric table that breaks the result format: a
// malformed or repeated name, a malformed unit, or a direction other
// than higher/lower.
func checkDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]{1,64}", d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			return fmt.Errorf("metric %s: direction %q", d.Name, d.Better)
		}
	}
	return nil
}

// quantile is the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest sample with at least q·n samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond counts the samples strictly above the nearest-rank q-quantile.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// tailResolved is the reporting rule for tail percentiles: a
// percentile is only trustworthy with at least ten samples beyond it.
func tailResolved(xs []float64, q float64) bool {
	return beyond(xs, q) >= 10
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult fills every metric of defs from values; a missing or
// non-finite value is an error, never a silently absent key.
func buildResult(defs []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

func (r result) line() string {
	b, _ := json.Marshal(r) // plain structs of numbers and strings
	return string(b)
}

// provenance identifies the host, toolchain and code a result was
// measured on.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Nproc        int    `json:"nproc"`
	Gomaxprocs   int    `json:"gomaxprocs"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Traced       bool   `json:"traced"`
}

func newProvenance(workload string, seed int64, traced bool, root string) provenance {
	return provenance{
		Workload:     workload,
		Seed:         seed,
		Nproc:        runtime.NumCPU(),
		Gomaxprocs:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		SourceDigest: sourceDigest(root),
		Traced:       traced,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without running git; checkouts that are not git
// repositories report "unknown" and rely on the source digest instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name)))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

// sourceDigest hashes the module's Go sources and go.mod files, so a
// result names the code it measured even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
