package experiment

import (
	"fmt"
	"math/rand"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
)

// QualityConfig parameterizes a detection-quality run: a synthetic sensor
// stream with ground-truth anomalies injected at a known cadence, scored
// by one of the middleware's anomaly detectors. (The paper evaluates only
// latency; this harness adds the accuracy dimension an adopter needs to
// pick detectors and thresholds.)
type QualityConfig struct {
	// Detector selects "zscore" or "knn".
	Detector string
	// Threshold is the anomaly cut-off.
	Threshold float64
	// Seed drives the noise.
	Seed int64
}

// The synthetic stream of every detection-quality run, a representative
// fall-detection-like setup.
const (
	// qualitySamples is the stream length.
	qualitySamples = 4000
	// spikeEvery injects a ground-truth anomaly every n-th sample.
	spikeEvery = 100
	// spikeMagnitude is the anomaly amplitude (baseline noise is N(0,1)).
	spikeMagnitude = 12
	// qualityWarmup samples are excluded from scoring (model cold start).
	qualityWarmup = 200
)

// DefaultQualityConfig returns the detection-quality run of one detector
// at one threshold.
func DefaultQualityConfig(detector string, threshold float64) QualityConfig {
	return QualityConfig{Detector: detector, Threshold: threshold, Seed: 1}
}

// QualityResult reports detection quality against ground truth.
type QualityResult struct {
	Config        QualityConfig
	TruePositive  int
	FalsePositive int
	FalseNegative int
	TrueNegative  int
}

// Precision is TP / (TP + FP); 1 when nothing was flagged.
func (r QualityResult) Precision() float64 {
	den := r.TruePositive + r.FalsePositive
	if den == 0 {
		return 1
	}
	return float64(r.TruePositive) / float64(den)
}

// Recall is TP / (TP + FN); 1 when nothing was missed.
func (r QualityResult) Recall() float64 {
	den := r.TruePositive + r.FalseNegative
	if den == 0 {
		return 1
	}
	return float64(r.TruePositive) / float64(den)
}

// F1 is the harmonic mean of precision and recall.
func (r QualityResult) F1() float64 {
	p, rec := r.Precision(), r.Recall()
	if p+rec == 0 {
		return 0
	}
	return 2 * p * rec / (p + rec)
}

// String renders the quality metrics compactly.
func (r QualityResult) String() string {
	return fmt.Sprintf("%s@%.1f: precision=%.3f recall=%.3f f1=%.3f (tp=%d fp=%d fn=%d)",
		r.Config.Detector, r.Config.Threshold, r.Precision(), r.Recall(), r.F1(),
		r.TruePositive, r.FalsePositive, r.FalseNegative)
}

// RunDetectionQuality streams the synthetic signal through the chosen
// detector and scores detections against the injected ground truth.
func RunDetectionQuality(cfg QualityConfig) QualityResult {
	var detector ml.AnomalyDetector
	switch cfg.Detector {
	case "knn":
		detector = ml.NewKNNAnomalyDetector(5, 256)
	default:
		detector = ml.NewZScoreDetector()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	res := QualityResult{Config: cfg}
	for i := 1; i <= qualitySamples; i++ {
		value := rng.NormFloat64()
		isAnomaly := i%spikeEvery == 0
		if isAnomaly {
			value = spikeMagnitude
		}
		score := detector.Add(feature.Vector{"v": value})
		if i <= qualityWarmup {
			continue
		}
		flagged := score > cfg.Threshold
		switch {
		case flagged && isAnomaly:
			res.TruePositive++
		case flagged && !isAnomaly:
			res.FalsePositive++
		case !flagged && isAnomaly:
			res.FalseNegative++
		default:
			res.TrueNegative++
		}
	}
	return res
}
