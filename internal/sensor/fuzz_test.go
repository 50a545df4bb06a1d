package sensor

import (
	"math"
	"testing"
)

// FuzzDecodeSample must never panic, accepted samples must be finite and
// must round-trip.
func FuzzDecodeSample(f *testing.F) {
	f.Add(Sample{SensorIndex: 1, Kind: Accelerometer, Seq: 2}.Encode())
	f.Add(make([]byte, SampleSize))
	f.Add([]byte{})
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	f.Add(Sample{Values: [3]float32{nan, 0, 0}}.Encode())
	f.Add(Sample{Values: [3]float32{0, 0, -inf}}.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSample(data)
		if err != nil {
			return
		}
		for _, v := range s.Values {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("accepted a non-finite channel: %+v", s)
			}
		}
		back, err := DecodeSample(s.Encode())
		if err != nil || back.Seq != s.Seq || back.SensorIndex != s.SensorIndex {
			t.Fatalf("accepted sample does not round-trip: %+v / %v", back, err)
		}
	})
}

// FuzzLoadTraceCSV must never panic.
func FuzzLoadTraceCSV(f *testing.F) {
	f.Add([]byte("1,2,3\n4,5,6"))
	f.Add([]byte("# comment\n\n1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = LoadTraceCSV(data)
	})
}
