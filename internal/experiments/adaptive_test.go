package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAdaptiveCompareWinsOnDrift pins the tentpole's headline claim: on
// a drifting hot set, with migration traffic charged to the clock, both
// adaptive policies must beat every static policy in the catalog.
func TestAdaptiveCompareWinsOnDrift(t *testing.T) {
	r, err := AdaptiveCompare(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AdaptiveWins() {
		best := r.BestStatic()
		for _, row := range r.Rows {
			if row.Adaptive && row.Runtime >= best.Runtime {
				t.Errorf("adaptive %q (%v) did not beat best static %q (%v) with migration charged",
					row.Policy, row.Runtime, best.Policy, best.Runtime)
			}
		}
		t.Fatal("adaptive did not win on the drift workload")
	}
	// The win is honest: the winner actually migrated and paid for it.
	winner := r.BestAdaptive()
	if winner.Epochs == 0 || winner.Moves == 0 || winner.MigratedBytes == 0 || winner.MigrationNs == 0 {
		t.Fatalf("winning adaptive row carries no migration evidence: %+v", winner)
	}
	var traffic int64
	for _, e := range winner.EpochTraffic {
		traffic += e.Bytes
	}
	if traffic != winner.MigratedBytes {
		t.Fatalf("per-epoch traffic %d bytes does not ledger to the total %d", traffic, winner.MigratedBytes)
	}
}

// TestAdaptiveCompareDeterministic: same scale and seed, same result.
func TestAdaptiveCompareDeterministic(t *testing.T) {
	a, err := AdaptiveCompare(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AdaptiveCompare(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ra, rb bytes.Buffer
	if err := a.Render(&ra); err != nil {
		t.Fatal(err)
	}
	if err := b.Render(&rb); err != nil {
		t.Fatal(err)
	}
	if ra.String() != rb.String() {
		t.Fatalf("repeated AdaptiveCompare diverged:\n%s\nvs\n%s", ra.String(), rb.String())
	}
	if !strings.Contains(ra.String(), "runtime gain") {
		t.Fatalf("render lacks the gain line:\n%s", ra.String())
	}
}

// TestAdaptiveCompareRejectsShards pins that adaptive-compare refuses a
// multi-shard scale even at its default epoch length, instead of
// measuring the adaptive rows statically.
func TestAdaptiveCompareRejectsShards(t *testing.T) {
	s := Quick
	s.Shards = 2
	if _, err := AdaptiveCompare(s, 1); err == nil || !strings.Contains(err.Error(), "shards 2") {
		t.Fatalf("AdaptiveCompare on 2 shards: err %v, want a shards rejection", err)
	}
}

// TestScaleMigrationKnobValidation covers the Scale-level knob checks.
func TestScaleMigrationKnobValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Scale)
	}{
		{"negative epoch ops", func(s *Scale) { s.EpochOps = -1 }},
		{"negative migration cost", func(s *Scale) { s.MigrationCostPerByte = -0.5 }},
		{"negative migration budget", func(s *Scale) { s.MigrationBudget = -1 }},
		{"epochs on a multi-shard cluster", func(s *Scale) { s.EpochOps, s.Shards = 4096, 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := Quick
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Fatal("invalid scale accepted")
			}
		})
	}
}
