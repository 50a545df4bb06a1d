package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
)

// mixBenchSample is one labeled training example for the MIX benchmarks.
type mixBenchSample struct {
	v     feature.Vector
	label string
}

// mixBenchStream pre-generates a deterministic sample stream over nFeatures
// interned feature names and 4 labels; each sample touches touch features.
func mixBenchStream(n, nFeatures, touch int) []mixBenchSample {
	rng := rand.New(rand.NewSource(42))
	labels := []string{"idle", "walk", "run", "fall"}
	out := make([]mixBenchSample, n)
	for i := range out {
		v := make(feature.Vector, touch)
		sum := 0.0
		for f := 0; f < touch; f++ {
			name := fmt.Sprintf("f%d@mean", rng.Intn(nFeatures))
			x := rng.Float64()*2 - 1
			v[name] = x
			sum += x
		}
		out[i] = mixBenchSample{v: v, label: labels[(i+int(sum*7))%4&3]}
	}
	return out
}

// BenchmarkMixRound measures one full MIX exchange — export → encode →
// decode → receive on a peer's mixReceiver — for the two payload kinds:
//
//	binary-full:  binary codec carrying the full model (a keyframe)
//	binary-delta: binary codec carrying only the round's weight updates
//
// Every variant performs the identical per-round training (trainPerRound
// samples) so the compared cost is the exchange path, not the learning.
// payload-B/round reports the wire bytes each strategy ships per round.
func BenchmarkMixRound(b *testing.B) {
	const (
		nFeatures     = 1500
		warmupSamples = 4000
		trainPerRound = 16
	)
	warmup := mixBenchStream(warmupSamples, nFeatures, 8)
	rounds := mixBenchStream(4096, nFeatures, 8)
	syms := feature.DefaultSymbols()

	newTrained := func(track bool) *ml.PassiveAggressive {
		m := ml.NewPassiveAggressive(0.1)
		if track {
			m.EnableDeltaTracking()
		}
		for _, s := range warmup {
			m.Train(s.v, s.label)
		}
		return m
	}

	b.Run("binary-full", func(b *testing.B) {
		trainer := newTrained(false)
		receiver := newMixReceiver(ml.NewPassiveAggressive(0.1), noShard, 0, nil)
		var (
			dense, rx    ml.MixDelta
			enc          []byte
			payloadBytes int64
		)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := rounds[i%len(rounds)]
			for k := 0; k < trainPerRound; k++ {
				trainer.Train(s.v, s.label)
			}
			trainer.ExportDenseInto(&dense)
			h := MixHeader{ModuleID: "bench", Round: uint64(i + 1), Keyframe: true, At: time.Unix(0, int64(i))}
			enc = AppendEncodeMix(enc[:0], h, &dense, syms)
			payloadBytes += int64(len(enc))
			if _, err := DecodeMix(enc, syms, &rx); err != nil {
				b.Fatal(err)
			}
			receiver.onPayload(h, &rx, h.At)
		}
		b.ReportMetric(float64(payloadBytes)/float64(b.N), "payload-B/round")
	})

	b.Run("binary-delta", func(b *testing.B) {
		trainer := newTrained(true)
		receiver := newMixReceiver(ml.NewPassiveAggressive(0.1), noShard, 0, nil)
		var (
			delta, rx    ml.MixDelta
			enc          []byte
			payloadBytes int64
		)
		// Bootstrap the receiver once (keyframe), then steady-state deltas.
		trainer.ExportDenseInto(&delta)
		receiver.onPayload(MixHeader{ModuleID: "bench", Keyframe: true}, &delta, time.Unix(0, 0))
		trainer.ExportDeltaInto(&delta) // drain warmup updates
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := rounds[i%len(rounds)]
			for k := 0; k < trainPerRound; k++ {
				trainer.Train(s.v, s.label)
			}
			trainer.ExportDeltaInto(&delta)
			h := MixHeader{ModuleID: "bench", Round: uint64(i + 1), At: time.Unix(0, int64(i))}
			enc = AppendEncodeMix(enc[:0], h, &delta, syms)
			payloadBytes += int64(len(enc))
			if _, err := DecodeMix(enc, syms, &rx); err != nil {
				b.Fatal(err)
			}
			receiver.onPayload(h, &rx, h.At)
		}
		b.ReportMetric(float64(payloadBytes)/float64(b.N), "payload-B/round")
	})
}
