package ycsb

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"mnemo/internal/kvstore"
)

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(Trending(42))
	b := MustGenerate(Trending(42))
	if len(a.Ops) != len(b.Ops) || len(a.Dataset.Records) != len(b.Dataset.Records) {
		t.Fatal("sizes differ across identical generations")
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs", i)
		}
	}
	for i := range a.Dataset.Records {
		if a.Dataset.Records[i] != b.Dataset.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate(Trending(1))
	b := MustGenerate(Trending(2))
	same := 0
	for i := range a.Ops {
		if a.Ops[i].Key == b.Ops[i].Key {
			same++
		}
	}
	if same == len(a.Ops) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTableIIIShapes(t *testing.T) {
	for _, spec := range TableIII(7) {
		w := MustGenerate(spec)
		if len(w.Dataset.Records) != DefaultKeys {
			t.Errorf("%s: keys = %d", spec.Name, len(w.Dataset.Records))
		}
		if len(w.Ops) != DefaultRequests {
			t.Errorf("%s: requests = %d", spec.Name, len(w.Ops))
		}
		rf := w.ReadFraction()
		if math.Abs(rf-spec.ReadRatio) > 0.01 {
			t.Errorf("%s: read fraction %.3f, want %.2f", spec.Name, rf, spec.ReadRatio)
		}
		if w.Dataset.TotalBytes <= 0 {
			t.Errorf("%s: empty dataset", spec.Name)
		}
	}
}

func TestReadOnlyWorkloadsHaveNoWrites(t *testing.T) {
	w := MustGenerate(Timeline(3))
	for i, op := range w.Ops {
		if op.Kind != kvstore.Read {
			t.Fatalf("op %d is %v in a read-only workload", i, op.Kind)
		}
	}
}

func TestEditThumbnailMix(t *testing.T) {
	w := MustGenerate(EditThumbnail(3))
	if rf := w.ReadFraction(); math.Abs(rf-0.5) > 0.01 {
		t.Fatalf("read fraction = %.3f, want ≈0.5", rf)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "nokeys", Keys: 0, Requests: 10, ReadRatio: 1},
		{Name: "noreqs", Keys: 10, Requests: 0, ReadRatio: 1},
		{Name: "badratio", Keys: 10, Requests: 10, ReadRatio: 1.5},
		{Name: "negratio", Keys: 10, Requests: 10, ReadRatio: -0.1},
	}
	for _, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %q accepted", s.Name)
		}
	}
}

func TestAccessCounts(t *testing.T) {
	w := MustGenerate(EditThumbnail(9))
	reads, writes := w.AccessCounts()
	var r, wr int
	for i := range reads {
		r += reads[i]
		wr += writes[i]
	}
	if r+wr != len(w.Ops) {
		t.Fatalf("counts %d+%d != %d ops", r, wr, len(w.Ops))
	}
	if r == 0 || wr == 0 {
		t.Fatal("mixed workload missing reads or writes")
	}
}

func TestTouchOrder(t *testing.T) {
	w := MustGenerate(Trending(5))
	order := w.TouchOrder()
	if len(order) != len(w.Dataset.Records) {
		t.Fatalf("touch order len = %d", len(order))
	}
	seen := map[int]bool{}
	for _, k := range order {
		if seen[k] {
			t.Fatalf("key %d appears twice in touch order", k)
		}
		seen[k] = true
	}
	// First entry must be the first op's key.
	if order[0] != w.Ops[0].Key {
		t.Fatalf("touch order starts at %d, first op key %d", order[0], w.Ops[0].Key)
	}
}

func TestTrendingHotSetConcentration(t *testing.T) {
	w := MustGenerate(Trending(11))
	reads, _ := w.AccessCounts()
	hot := 0
	total := 0
	for i, c := range reads {
		total += c
		if i < DefaultKeys/5 {
			hot += c
		}
	}
	frac := float64(hot) / float64(total)
	if math.Abs(frac-0.9) > 0.01 {
		t.Fatalf("hot 20%% of keys received %.3f of ops, want ≈0.9", frac)
	}
}

func TestDownsamplePreservesShape(t *testing.T) {
	w := MustGenerate(Trending(13))
	d := w.Downsample(10, 99)
	if got, want := len(d.Ops), len(w.Ops)/10; got != want {
		t.Fatalf("downsampled ops = %d, want %d", got, want)
	}
	// Hot-set share must be preserved within a few percent.
	share := func(x *Workload) float64 {
		reads, writes := x.AccessCounts()
		hot, total := 0, 0
		for i := range reads {
			c := reads[i] + writes[i]
			total += c
			if i < DefaultKeys/5 {
				hot += c
			}
		}
		return float64(hot) / float64(total)
	}
	if math.Abs(share(w)-share(d)) > 0.03 {
		t.Fatalf("hot share drifted: full %.3f vs sampled %.3f", share(w), share(d))
	}
	// Dataset unchanged.
	if d.Dataset.TotalBytes != w.Dataset.TotalBytes {
		t.Fatal("downsample altered dataset")
	}
	if d.Spec.Name == w.Spec.Name {
		t.Fatal("downsample should rename the spec")
	}
}

func TestDownsampleFactorOneCopies(t *testing.T) {
	w := MustGenerate(Timeline(17))
	d := w.Downsample(1, 0)
	if len(d.Ops) != len(w.Ops) {
		t.Fatal("factor-1 downsample changed length")
	}
	d.Ops[0].Key = -1
	if w.Ops[0].Key == -1 {
		t.Fatal("factor-1 downsample shares the ops slice")
	}
}

func TestDownsamplePanicsOnBadFactor(t *testing.T) {
	w := MustGenerate(Trending(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Downsample(0, 1)
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"trending", "news_feed", "timeline", "edit_thumbnail", "trending_preview"} {
		if _, ok := SpecByName(name, 1); !ok {
			t.Errorf("%q not found", name)
		}
	}
	if _, ok := SpecByName("nonsense", 1); ok {
		t.Error("unknown name resolved")
	}
}

func TestDistKindAndSizeKindStrings(t *testing.T) {
	if Hotspot.String() != "hotspot" || Latest.String() != "latest" {
		t.Error("dist kind strings wrong")
	}
	if SizeThumbnail.String() != "thumbnail" {
		t.Error("size kind string wrong")
	}
	if DistKind(99).String() == "" || SizeKind(99).String() == "" {
		t.Error("unknown kinds should still format")
	}
}

func TestDistSpecNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DistSpec{Kind: DistKind(99)}.New(10, 10)
}

func TestSizeKindNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SizeKind(99).New()
}

func TestKeyNameStable(t *testing.T) {
	if KeyName(7) != "user00000007" {
		t.Fatalf("KeyName(7) = %q", KeyName(7))
	}
}

func TestFixedSizeKinds(t *testing.T) {
	for kind, want := range map[SizeKind]float64{
		SizeFixed1KB:   1024,
		SizeFixed10KB:  10240,
		SizeFixed100KB: 102400,
	} {
		if got := kind.New().Mean(); got != want {
			t.Errorf("%v mean = %v, want %v", kind, got, want)
		}
	}
}

func TestPackedTraceMatchesOps(t *testing.T) {
	w := MustGenerate(Spec{
		Name: "packed", Keys: 100, Requests: 1000,
		Dist: DistSpec{Kind: Zipfian}, ReadRatio: 0.5, Seed: 4,
	})
	pt := w.Packed()
	if pt == nil || !pt.Batchable() {
		t.Fatal("read/write trace not batchable")
	}
	if len(pt.Keys) != len(w.Ops) || len(pt.Kinds) != len(w.Ops) {
		t.Fatalf("packed lengths %d/%d != %d ops", len(pt.Keys), len(pt.Kinds), len(w.Ops))
	}
	for i, op := range w.Ops {
		if int(pt.Keys[i]) != op.Key || kvstore.OpKind(pt.Kinds[i]) != op.Kind {
			t.Fatalf("op %d: packed (%d,%d) != (%d,%v)", i, pt.Keys[i], pt.Kinds[i], op.Key, op.Kind)
		}
	}
	if w.Packed() != pt {
		t.Fatal("Packed not cached")
	}
}

func TestPackedTraceDeleteNotBatchable(t *testing.T) {
	w := MustGenerate(Spec{
		Name: "del", Keys: 10, Requests: 20,
		Dist: DistSpec{Kind: Uniform}, ReadRatio: 1, Seed: 1,
	})
	w.Ops[7].Kind = kvstore.Delete
	pt := w.Packed()
	if pt == nil {
		t.Fatal("trace should still encode")
	}
	if pt.Batchable() {
		t.Fatal("trace with a Delete marked batchable")
	}
	var nilPT *PackedTrace
	if nilPT.Batchable() {
		t.Fatal("nil trace marked batchable")
	}
}

// TestPackedTraceOutcomesBuildOnce pins the outcome memo's concurrency
// contract: concurrent requests for one key share a single build and
// the same bitmap, and a distinct key builds its own.
func TestPackedTraceOutcomesBuildOnce(t *testing.T) {
	w := MustGenerate(Spec{
		Name: "memo", Keys: 10, Requests: 100,
		Dist: DistSpec{Kind: Uniform}, ReadRatio: 1, Seed: 1,
	})
	pt := w.Packed()
	var builds atomic.Int32
	build := func() []uint64 {
		builds.Add(1)
		return make([]uint64, 2)
	}
	key := OutcomeKey{Engine: 1, Capacity: 1 << 20}
	got := make([][]uint64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = pt.Outcomes(key, build)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for g := range got {
		if &got[g][0] != &got[0][0] {
			t.Fatalf("caller %d got a different bitmap", g)
		}
	}
	other := pt.Outcomes(OutcomeKey{Engine: 2, Capacity: 1 << 20}, build)
	if builds.Load() != 2 || &other[0] == &got[0][0] {
		t.Fatal("a distinct key reused another key's bitmap")
	}
}
