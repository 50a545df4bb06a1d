package sensor

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
)

func TestSampleEncodeSize(t *testing.T) {
	s := Sample{Kind: Accelerometer, Seq: 1, Timestamp: time.Now()}
	if got := len(s.Encode()); got != SampleSize {
		t.Fatalf("Encode length = %d, want %d (the paper's 32-byte samples)", got, SampleSize)
	}
}

func TestSampleRoundTrip(t *testing.T) {
	in := Sample{
		SensorIndex: 7,
		Kind:        Sound,
		Seq:         42,
		Timestamp:   time.Unix(1461000000, 123456789),
		Values:      [3]float32{1.5, -2.25, 0},
	}
	out, err := DecodeSample(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.SensorIndex != in.SensorIndex || out.Kind != in.Kind || out.Seq != in.Seq ||
		!out.Timestamp.Equal(in.Timestamp) || out.Values != in.Values {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

func TestDecodeSampleRejectsBadInput(t *testing.T) {
	if _, err := DecodeSample(nil); !errors.Is(err, ErrBadSample) {
		t.Fatalf("nil: err = %v", err)
	}
	if _, err := DecodeSample(make([]byte, SampleSize)); !errors.Is(err, ErrBadSample) {
		t.Fatalf("zero magic: err = %v", err)
	}
	if _, err := DecodeSample(make([]byte, SampleSize-1)); !errors.Is(err, ErrBadSample) {
		t.Fatalf("short: err = %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for ch := 0; ch < 3; ch++ {
			s := Sample{Kind: Accelerometer}
			s.Values[ch] = float32(v)
			if _, err := DecodeSample(s.Encode()); !errors.Is(err, ErrBadSample) {
				t.Fatalf("channel %d = %v: err = %v", ch, v, err)
			}
		}
	}
}

// Property: every sample round-trips through the 32-byte codec.
func TestSampleRoundTripProperty(t *testing.T) {
	f := func(idx uint16, kind uint8, seq uint32, nanos int64, a, b, c float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) || math.IsNaN(float64(c)) {
			return true
		}
		in := Sample{
			SensorIndex: idx,
			Kind:        Type(kind),
			Seq:         seq,
			Timestamp:   time.Unix(0, nanos),
			Values:      [3]float32{a, b, c},
		}
		out, err := DecodeSample(in.Encode())
		return err == nil && out.SensorIndex == in.SensorIndex && out.Seq == in.Seq &&
			out.Timestamp.Equal(in.Timestamp) && out.Values == in.Values
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeString(t *testing.T) {
	if Accelerometer.String() != "accelerometer" || Type(99).String() != "type(99)" {
		t.Fatal("Type.String mismatch")
	}
}

func TestConstantGenerator(t *testing.T) {
	g := Constant(1, 2, 3)
	if got := g.Next(time.Now()); got != [3]float32{1, 2, 3} {
		t.Fatalf("Constant = %v", got)
	}
}

func TestSineGeneratorBounded(t *testing.T) {
	g := Sine(1, 2)
	for i := 0; i < 100; i++ {
		v := g.Next(time.Unix(0, int64(i)*int64(time.Millisecond)*17))
		for ch, x := range v {
			if x < -2.001 || x > 2.001 {
				t.Fatalf("sine ch%d = %v out of amplitude bounds", ch, x)
			}
		}
	}
}

func TestGaussianNoiseStatistics(t *testing.T) {
	g := GaussianNoise(10, 2, 42)
	var sum, sq float64
	const n = 3000
	for i := 0; i < n; i++ {
		v := g.Next(time.Time{})
		for _, x := range v {
			sum += float64(x)
			sq += float64(x) * float64(x)
		}
	}
	mean := sum / (3 * n)
	std := math.Sqrt(sq/(3*n) - mean*mean)
	if math.Abs(mean-10) > 0.2 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if math.Abs(std-2) > 0.2 {
		t.Errorf("std = %v, want ~2", std)
	}
}

func TestGaussianNoiseDeterministicPerSeed(t *testing.T) {
	a, b := GaussianNoise(0, 1, 7), GaussianNoise(0, 1, 7)
	for i := 0; i < 10; i++ {
		if a.Next(time.Time{}) != b.Next(time.Time{}) {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandomWalkBounded(t *testing.T) {
	g := RandomWalk(0, 1, -3, 3, 9)
	for i := 0; i < 1000; i++ {
		v := g.Next(time.Time{})
		if v[0] < -3 || v[0] > 3 {
			t.Fatalf("walk escaped bounds: %v", v[0])
		}
	}
}

func TestSpikeInjector(t *testing.T) {
	g := SpikeInjector(Constant(1, 1, 1), 5, 100)
	spikes := 0
	for i := 1; i <= 20; i++ {
		v := g.Next(time.Time{})
		if v[0] == 100 {
			spikes++
			if i%5 != 0 {
				t.Fatalf("spike at sample %d, want multiples of 5", i)
			}
		}
	}
	if spikes != 4 {
		t.Fatalf("spikes = %d, want 4", spikes)
	}
}

func TestSensorNextIncrementsSeq(t *testing.T) {
	s := &Sensor{ID: "s1", Index: 3, Kind: Temperature, Gen: Constant(20, 0, 0)}
	a := s.Next(time.Unix(1, 0))
	b := s.Next(time.Unix(2, 0))
	if a.Seq != 1 || b.Seq != 2 {
		t.Fatalf("Seq = %d,%d want 1,2", a.Seq, b.Seq)
	}
	if a.SensorIndex != 3 || a.Kind != Temperature {
		t.Fatalf("sample identity %+v", a)
	}
}

func TestSensorRunEmitsAtRate(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(0, 0))
	s := &Sensor{ID: "s", RateHz: 10, Clock: vc, Gen: Constant(1, 0, 0)}

	var mu sync.Mutex
	var got []Sample
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Run(ctx, func(smp Sample) {
			mu.Lock()
			got = append(got, smp)
			mu.Unlock()
		})
	}()

	// Advance 1 simulated second in 100ms steps: expect ~10 samples.
	for i := 0; i < 10; i++ {
		// Wait until the sensor has armed its next timer.
		waitTimer(t, vc)
		vc.Advance(100 * time.Millisecond)
	}
	waitSamples(t, &mu, &got, 10)
	cancel()
	vc.Advance(time.Second) // release a sensor blocked on its timer
	<-done

	mu.Lock()
	defer mu.Unlock()
	for i, smp := range got[:10] {
		want := time.Unix(0, 0).Add(time.Duration(i+1) * 100 * time.Millisecond)
		if !smp.Timestamp.Equal(want) {
			t.Fatalf("sample %d at %v, want %v", i, smp.Timestamp, want)
		}
	}
}

func waitTimer(t *testing.T, vc *clock.Virtual) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := vc.NextDeadline(); ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("sensor never armed a timer")
}

func waitSamples(t *testing.T, mu *sync.Mutex, got *[]Sample, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		count := len(*got)
		mu.Unlock()
		if count >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d samples", n)
}

func TestSensorRunRejectsBadRate(t *testing.T) {
	s := &Sensor{ID: "s", RateHz: 0}
	if err := s.Run(context.Background(), func(Sample) {}); err == nil {
		t.Fatal("Run with rate 0 succeeded")
	}
}

func TestVirtualActuatorRecordsCommands(t *testing.T) {
	a := NewVirtualActuator("light")
	if err := a.Apply(Command{Name: "set-brightness", Value: 0.7}); err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(Command{Name: "set-brightness", Value: 0.2}); err != nil {
		t.Fatal(err)
	}
	if got := a.CommandCount(); got != 2 {
		t.Fatalf("CommandCount = %d", got)
	}
	v, ok := a.State("set-brightness")
	if !ok || v != 0.2 {
		t.Fatalf("State = %v,%v want 0.2,true", v, ok)
	}
	h := a.History()
	if len(h) != 2 || h[0].Value != 0.7 {
		t.Fatalf("History = %+v", h)
	}
}

func TestVirtualActuatorWhitelist(t *testing.T) {
	a := NewVirtualActuator("ac", "set-temp")
	if err := a.Apply(Command{Name: "set-temp", Value: 24}); err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(Command{Name: "explode"}); !errors.Is(err, ErrUnsupportedCommand) {
		t.Fatalf("err = %v, want ErrUnsupportedCommand", err)
	}
}

func TestVirtualActuatorConcurrent(t *testing.T) {
	a := NewVirtualActuator("x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = a.Apply(Command{Name: "n", Value: 1})
			}
		}()
	}
	wg.Wait()
	if got := a.CommandCount(); got != 400 {
		t.Fatalf("CommandCount = %d, want 400", got)
	}
}

func TestTraceGeneratorLoops(t *testing.T) {
	g := Trace([][3]float32{{1, 0, 0}, {2, 0, 0}})
	want := []float32{1, 2, 1, 2, 1}
	for i, w := range want {
		if got := g.Next(time.Time{}); got[0] != w {
			t.Fatalf("sample %d = %v, want %v", i, got[0], w)
		}
	}
}

func TestTraceGeneratorEmpty(t *testing.T) {
	g := Trace(nil)
	if got := g.Next(time.Time{}); got != [3]float32{} {
		t.Fatalf("empty trace = %v", got)
	}
}

func TestLoadTraceCSV(t *testing.T) {
	data := []byte("# header comment\n1.5,2,3\n\n4\n5,6\n")
	vals, err := LoadTraceCSV(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("rows = %d, want 3", len(vals))
	}
	if vals[0] != [3]float32{1.5, 2, 3} || vals[1] != [3]float32{4, 0, 0} || vals[2] != [3]float32{5, 6, 0} {
		t.Fatalf("vals = %v", vals)
	}
}

func TestLoadTraceCSVErrors(t *testing.T) {
	if _, err := LoadTraceCSV([]byte("1,2,3,4\n")); err == nil {
		t.Fatal("accepted 4 channels")
	}
	if _, err := LoadTraceCSV([]byte("not-a-number\n")); err == nil {
		t.Fatal("accepted junk")
	}
}
