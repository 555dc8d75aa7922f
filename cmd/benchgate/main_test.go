package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

func TestGatePassesOnCurrentTree(t *testing.T) {
	// testdata/current.txt is a real -count 5 run of the tracked
	// benchmarks on this tree; the gate must accept it.
	var out bytes.Buffer
	err := run([]string{"-baseline", "../../BENCH_baseline.json", "testdata/current.txt"}, &out)
	if err != nil {
		t.Fatalf("gate failed on current-tree fixture: %v\n%s", err, out.String())
	}
	for _, want := range []string{"BenchmarkReplay", "BenchmarkReplayBatched", "Batched/Memo", "BenchmarkDeploymentDo", "BenchmarkValidateParallel", "BenchmarkReplaySharded", "BenchmarkReplayAdaptive", "BenchmarkReplayStreamed", "BenchmarkTuneSweep", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "FAIL") {
		t.Errorf("report contains FAIL:\n%s", out.String())
	}
}

func TestGateFailsOnSyntheticSlowdown(t *testing.T) {
	// testdata/slowdown.txt is current.txt with each gate's shipped-path
	// timings (Indexed/Batched/Memo/Shards4/Adaptive/Streamed ns/req,
	// Index/Parallel/Memoized ns/op) scaled so its speedup lands at half
	// the recorded baseline: a 2x regression against BENCH_baseline.json
	// must trip every gate. (Plain doubling no longer does: on the 2-CPU
	// host the fixture's Sequential/Parallel ratio sits 1.7x above its
	// 1-CPU baseline.) Gates are scaled in order, so Memo is scaled
	// against the already-slowed Batched it shares with the gate before.
	var out bytes.Buffer
	err := run([]string{"-baseline", "../../BENCH_baseline.json", "testdata/slowdown.txt"}, &out)
	if err == nil {
		t.Fatalf("gate accepted a 2x slowdown:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "9 of 9 speedup gates failed") {
		t.Errorf("error = %v, want all gates failing", err)
	}
	if got := strings.Count(out.String(), "FAIL"); got != 9 {
		t.Errorf("report shows %d FAIL verdicts, want 9:\n%s", got, out.String())
	}
}

func TestGateFamilyToleranceCap(t *testing.T) {
	// The streamed family caps its tolerance at 10%: an ~18% erosion of
	// the streamed-over-batched ratio sits inside the global ±25%
	// envelope but past the family cap, so exactly that gate must trip.
	// The fixture is current.txt with the Streamed samples replaced by
	// the fixture's own Batched median slowed to a ratio of ~0.75,
	// against a 0.91*0.9 = 0.819 family floor (the global floor would
	// be 0.91*0.75 = 0.68, which ~0.75 clears).
	raw, err := os.ReadFile("testdata/current.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string][]float64{}
	if err := parseBench(bytes.NewReader(raw), samples); err != nil {
		t.Fatal(err)
	}
	batched := median(samples["BenchmarkReplayStreamed/Batched ns/req"])
	var lines []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "BenchmarkReplayStreamed/Streamed") {
			continue
		}
		lines = append(lines, line)
	}
	for _, ratio := range []float64{0.77, 0.73, 0.75, 0.76, 0.74} {
		v := batched / ratio
		lines = append(lines, fmt.Sprintf("BenchmarkReplayStreamed/Streamed 1500 %.0f ns/op %.2f ns/req", v*10000, v))
	}
	path := t.TempDir() + "/stream.txt"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-baseline", "../../BENCH_baseline.json", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "1 of 9") {
		t.Fatalf("family cap did not trip exactly once: err %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkReplayStreamed") || strings.Count(out.String(), "FAIL") != 1 {
		t.Errorf("wrong gate tripped:\n%s", out.String())
	}
}

func TestGateMultipleFilesAndZeroTolerance(t *testing.T) {
	// Samples may be split across files (one per package in CI); with
	// -tolerance 0 the floor equals the recorded baseline, which the
	// current fixture does not reach — deliberately strict.
	var out bytes.Buffer
	err := run([]string{"-baseline", "../../BENCH_baseline.json", "-tolerance", "0",
		"testdata/current.txt", "testdata/current.txt"}, &out)
	if err == nil {
		t.Fatalf("zero tolerance accepted sub-baseline speedups:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "n=10") {
		t.Errorf("samples from both files not pooled:\n%s", out.String())
	}
}

func TestGateRejectsBadInvocation(t *testing.T) {
	for _, args := range [][]string{
		{},                          // no bench files
		{"-tolerance", "1", "x"},    // tolerance outside [0,1)
		{"-tolerance", "-0.1", "x"}, // negative tolerance
		{"testdata/missing.txt"},    // unreadable bench file
		{"-baseline", "testdata/missing.json", "testdata/current.txt"}, // unreadable baseline
	} {
		var out bytes.Buffer
		if err := run(append([]string{}, args...), &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestGateRejectsMissingSamples(t *testing.T) {
	// A truncated run (benchmark panicked, -bench regex too narrow) must
	// fail loudly rather than pass vacuously.
	var out bytes.Buffer
	err := run([]string{"-baseline", "../../BENCH_baseline.json", "testdata/empty.txt"}, &out)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("empty bench output not rejected: %v", err)
	}
}

func TestParseBench(t *testing.T) {
	input := `goos: linux
BenchmarkReplay/StringKeyed-8   	     500	   3717369 ns/op	       371.7 ns/req
BenchmarkReplay/StringKeyed     	     600	   3500000 ns/op	       350.0 ns/req
some unrelated line
PASS
`
	samples := map[string][]float64{}
	if err := parseBench(strings.NewReader(input), samples); err != nil {
		t.Fatal(err)
	}
	// The -8 CPU suffix is stripped, so both lines pool under one key.
	got := samples["BenchmarkReplay/StringKeyed ns/req"]
	if len(got) != 2 || got[0] != 371.7 || got[1] != 350.0 {
		t.Errorf("ns/req samples = %v", got)
	}
	if ops := samples["BenchmarkReplay/StringKeyed ns/op"]; len(ops) != 2 {
		t.Errorf("ns/op samples = %v", ops)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("even median = %v", got)
	}
}
