package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ifot-middleware/ifot/internal/feature"
)

// deltaExchangeRound runs one Delta-MIX round over in-process shard
// members: each drains its accumulated delta, keeps a 1/n share of its own
// updates, and applies every peer's delta at 1/n — the same algebra the
// core mix loop performs over MQTT.
func deltaExchangeRound(models []DeltaMixer) {
	n := float64(len(models))
	deltas := make([]MixDelta, len(models))
	for i, m := range models {
		m.ExportDeltaInto(&deltas[i])
	}
	for i, m := range models {
		for j := range deltas {
			if j == i {
				m.ApplyDelta(&deltas[j], 1/n-1)
			} else {
				m.ApplyDelta(&deltas[j], 1/n)
			}
		}
	}
}

// fullSnapshotRound is the legacy MIX round: average the full exported
// weight maps and import the result everywhere.
func fullSnapshotRound(t *testing.T, models []WeightExporter) {
	t.Helper()
	snaps := make([]map[string]feature.Vector, len(models))
	for i, m := range models {
		snaps[i] = m.ExportWeights()
	}
	avg, err := AverageWeights(snaps)
	if err != nil {
		t.Fatalf("AverageWeights: %v", err)
	}
	for _, m := range models {
		m.ImportWeights(avg)
	}
}

func maxWeightDiff(a, b map[string]feature.Vector) float64 {
	worst := 0.0
	labels := make(map[string]struct{})
	for l := range a {
		labels[l] = struct{}{}
	}
	for l := range b {
		labels[l] = struct{}{}
	}
	for l := range labels {
		names := make(map[string]struct{})
		for n := range a[l] {
			names[n] = struct{}{}
		}
		for n := range b[l] {
			names[n] = struct{}{}
		}
		for n := range names {
			if d := math.Abs(a[l][n] - b[l][n]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// classifierStream emits a deterministic labeled sample stream; shard i
// trains on samples where seq%shards == i, so shards see disjoint data.
func classifierSample(rng *rand.Rand) (feature.Vector, string) {
	x1, x2 := rng.Float64()*2-1, rng.Float64()*2-1
	v := feature.Vector{
		fmt.Sprintf("s%d@mean", rng.Intn(4)): x1,
		"t@last":                             x2,
	}
	label := "cold"
	if x1+x2 > 0 {
		label = "hot"
	}
	return v, label
}

// TestDeltaExchangeMatchesFullSnapshotClassifier drives two shard clusters
// — one over the incremental delta protocol, one over legacy full-snapshot
// averaging — through identical sharded training and requires every weight
// to agree within 1e-9 after each of many rounds.
func TestDeltaExchangeMatchesFullSnapshotClassifier(t *testing.T) {
	const shards, rounds, perRound = 3, 8, 40
	deltaShards := make([]DeltaMixer, shards)
	refShards := make([]WeightExporter, shards)
	for i := 0; i < shards; i++ {
		d := NewPassiveAggressive(1)
		d.EnableDeltaTracking()
		deltaShards[i] = d
		refShards[i] = NewPassiveAggressive(1)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < rounds; round++ {
		for k := 0; k < perRound; k++ {
			v, label := classifierSample(rng)
			shard := k % shards
			deltaShards[shard].(*PassiveAggressive).Train(v, label)
			refShards[shard].(*PassiveAggressive).Train(v.Clone(), label)
		}
		deltaExchangeRound(deltaShards)
		fullSnapshotRound(t, refShards)
		for i := 0; i < shards; i++ {
			got := deltaShards[i].ExportWeights()
			want := refShards[i].ExportWeights()
			if diff := maxWeightDiff(got, want); diff > 1e-9 {
				t.Fatalf("round %d shard %d: max weight diff %.3e > 1e-9", round, i, diff)
			}
		}
	}
}

// TestDeltaExchangeMatchesFullSnapshotRegressor is the regression-mode
// equivalence check: the delta protocol must track full-snapshot averaging
// for PARegressor (weights and bias) within 1e-9.
func TestDeltaExchangeMatchesFullSnapshotRegressor(t *testing.T) {
	const shards, rounds, perRound = 2, 8, 30
	deltaShards := make([]DeltaMixer, shards)
	refShards := make([]WeightExporter, shards)
	for i := 0; i < shards; i++ {
		d := NewPARegressor(0.01, 1)
		d.EnableDeltaTracking()
		deltaShards[i] = d
		refShards[i] = NewPARegressor(0.01, 1)
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < rounds; round++ {
		for k := 0; k < perRound; k++ {
			x1, x2 := rng.Float64()*2-1, rng.Float64()*2-1
			v := feature.Vector{"x1@last": x1, "x2@last": x2}
			target := 3*x1 - 2*x2 + 1
			shard := k % shards
			deltaShards[shard].(*PARegressor).Train(v, target)
			refShards[shard].(*PARegressor).Train(v.Clone(), target)
		}
		deltaExchangeRound(deltaShards)
		fullSnapshotRound(t, refShards)
		for i := 0; i < shards; i++ {
			got := deltaShards[i].ExportWeights()
			want := refShards[i].ExportWeights()
			if diff := maxWeightDiff(got, want); diff > 1e-9 {
				t.Fatalf("round %d shard %d: max weight diff %.3e > 1e-9", round, i, diff)
			}
		}
	}
}

// TestExportDeltaDrains checks drain semantics: a second export with no
// intervening training is empty, and applied peer deltas never echo back
// out as local updates.
func TestExportDeltaDrains(t *testing.T) {
	p := NewPassiveAggressive(1)
	p.EnableDeltaTracking()
	p.Train(feature.Vector{"a@x": 1}, "hot")
	p.Train(feature.Vector{"a@x": -1}, "cold")

	var d MixDelta
	p.ExportDeltaInto(&d)
	if d.Len() == 0 {
		t.Fatal("first export: want nonempty delta")
	}
	var again MixDelta
	p.ExportDeltaInto(&again)
	if again.Len() != 0 {
		t.Fatalf("second export: want empty delta, got %d entries", again.Len())
	}

	// Applying a peer delta must not mark anything dirty.
	p.ApplyDelta(&d, 0.5)
	p.ExportDeltaInto(&again)
	if again.Len() != 0 {
		t.Fatalf("after ApplyDelta: want empty delta, got %d entries", again.Len())
	}
}
