// Package sensor provides the virtual sensors and actuators standing in
// for the paper's physical sensor/actuator nodes. Sensors emit fixed-size
// (32-byte) samples at configurable rates, matching the experiment traffic
// of Section V; actuators record the commands applied to them.
package sensor

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
)

// Type identifies a sensor modality.
type Type uint8

// Sensor modalities used by the paper's motivating applications.
const (
	Accelerometer Type = iota + 1
	Illuminance
	Sound
	Motion
	Temperature
	Humidity
)

// String returns the modality name.
func (t Type) String() string {
	switch t {
	case Accelerometer:
		return "accelerometer"
	case Illuminance:
		return "illuminance"
	case Sound:
		return "sound"
	case Motion:
		return "motion"
	case Temperature:
		return "temperature"
	case Humidity:
		return "humidity"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Sample is one sensor reading. Its binary encoding is exactly 32 bytes,
// the sample size used in the paper's experiment.
type Sample struct {
	// SensorIndex identifies the emitting sensor (dense small integers).
	SensorIndex uint16
	// Kind is the sensor modality.
	Kind Type
	// Seq is a per-sensor monotonically increasing sequence number.
	Seq uint32
	// Timestamp is the sensing instant (nanosecond precision).
	Timestamp time.Time
	// Values holds up to three channel readings (e.g. x/y/z acceleration).
	Values [3]float32
}

// SampleSize is the binary encoding size of a Sample in bytes.
const SampleSize = 32

const sampleMagic = 0xF7

// ErrBadSample is returned when decoding malformed sample bytes.
var ErrBadSample = errors.New("sensor: malformed sample")

// Encode serializes the sample to its fixed 32-byte wire form.
func (s Sample) Encode() []byte {
	return s.AppendEncode(make([]byte, 0, SampleSize))
}

// AppendEncode appends the sample's 32-byte wire form to dst.
func (s Sample) AppendEncode(dst []byte) []byte {
	dst = append(dst, sampleMagic, byte(s.Kind))
	dst = binary.BigEndian.AppendUint16(dst, s.SensorIndex)
	dst = binary.BigEndian.AppendUint32(dst, s.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.Timestamp.UnixNano()))
	for _, v := range s.Values {
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(v))
	}
	// Bytes 28..31 are reserved padding, kept zero.
	return append(dst, 0, 0, 0, 0)
}

// DecodeSample parses a 32-byte sample. A NaN or infinite channel is
// malformed: one such reading would poison every learner it reached.
func DecodeSample(data []byte) (Sample, error) {
	if len(data) != SampleSize || data[0] != sampleMagic {
		return Sample{}, ErrBadSample
	}
	s := Sample{
		Kind:        Type(data[1]),
		SensorIndex: binary.BigEndian.Uint16(data[2:4]),
		Seq:         binary.BigEndian.Uint32(data[4:8]),
		Timestamp:   time.Unix(0, int64(binary.BigEndian.Uint64(data[8:16]))),
	}
	for i := range s.Values {
		v := float64(math.Float32frombits(binary.BigEndian.Uint32(data[16+4*i : 20+4*i])))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Sample{}, ErrBadSample
		}
		s.Values[i] = float32(v)
	}
	return s, nil
}

// Generator produces the next channel readings for a sample at time t.
// Implementations need not be safe for concurrent use; each Sensor owns one.
type Generator interface {
	Next(t time.Time) [3]float32
}

// GeneratorFunc adapts a function to the Generator interface.
type GeneratorFunc func(t time.Time) [3]float32

// Next implements Generator.
func (f GeneratorFunc) Next(t time.Time) [3]float32 { return f(t) }

// Constant emits fixed values.
func Constant(a, b, c float32) Generator {
	return GeneratorFunc(func(time.Time) [3]float32 { return [3]float32{a, b, c} })
}

// Sine emits a sine wave with the given frequency (Hz), amplitude, and
// per-channel phase offsets, on all three channels.
func Sine(freqHz, amplitude float64) Generator {
	return GeneratorFunc(func(t time.Time) [3]float32 {
		sec := float64(t.UnixNano()) / float64(time.Second)
		base := 2 * math.Pi * freqHz * sec
		return [3]float32{
			float32(amplitude * math.Sin(base)),
			float32(amplitude * math.Sin(base+2*math.Pi/3)),
			float32(amplitude * math.Sin(base+4*math.Pi/3)),
		}
	})
}

// randState is a tiny deterministic PRNG (xorshift64) so generators do not
// depend on math/rand global state.
type randState uint64

func (r *randState) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = randState(x)
	return x
}

func (r *randState) float64() float64 { // in [0,1)
	return float64(r.next()>>11) / float64(1<<53)
}

func (r *randState) norm() float64 { // approximate standard normal (CLT of 12 uniforms)
	var sum float64
	for i := 0; i < 12; i++ {
		sum += r.float64()
	}
	return sum - 6
}

// GaussianNoise emits independent Gaussian noise around mean with the given
// standard deviation on all channels; seed fixes the stream.
func GaussianNoise(mean, stddev float64, seed uint64) Generator {
	if seed == 0 {
		seed = 1
	}
	state := randState(seed)
	return GeneratorFunc(func(time.Time) [3]float32 {
		return [3]float32{
			float32(mean + stddev*state.norm()),
			float32(mean + stddev*state.norm()),
			float32(mean + stddev*state.norm()),
		}
	})
}

// RandomWalk emits a bounded random walk starting at start with the given
// step size, clamped to [min, max].
func RandomWalk(start, step, min, max float64, seed uint64) Generator {
	if seed == 0 {
		seed = 1
	}
	state := randState(seed)
	value := start
	return GeneratorFunc(func(time.Time) [3]float32 {
		value += (state.float64()*2 - 1) * step
		if value < min {
			value = min
		}
		if value > max {
			value = max
		}
		return [3]float32{float32(value), 0, 0}
	})
}

// Trace replays a recorded sequence of readings, looping when exhausted —
// the substitute for the paper's physical sensor recordings. An empty
// trace behaves like Constant(0, 0, 0).
func Trace(values [][3]float32) Generator {
	idx := 0
	return GeneratorFunc(func(time.Time) [3]float32 {
		if len(values) == 0 {
			return [3]float32{}
		}
		v := values[idx%len(values)]
		idx++
		return v
	})
}

// LoadTraceCSV parses a trace from CSV text: one sample per line with 1–3
// comma-separated float channels. Blank lines and lines starting with '#'
// are skipped.
func LoadTraceCSV(data []byte) ([][3]float32, error) {
	var out [][3]float32
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) > 3 {
			return nil, fmt.Errorf("sensor: trace line %d: %d channels, max 3", lineNo+1, len(fields))
		}
		var v [3]float32
		for i, f := range fields {
			x, err := strconv.ParseFloat(strings.TrimSpace(f), 32)
			if err != nil {
				return nil, fmt.Errorf("sensor: trace line %d: %w", lineNo+1, err)
			}
			v[i] = float32(x)
		}
		out = append(out, v)
	}
	return out, nil
}

// SpikeInjector wraps a base generator, replacing every n-th sample with an
// anomalous spike of the given magnitude on channel 0 — used to create
// ground-truth anomalies in tests and examples.
func SpikeInjector(base Generator, everyN uint32, magnitude float32) Generator {
	var count uint32
	return GeneratorFunc(func(t time.Time) [3]float32 {
		count++
		v := base.Next(t)
		if everyN > 0 && count%everyN == 0 {
			v[0] = magnitude
		}
		return v
	})
}

// Sensor is a virtual sensor node emitting samples at a fixed rate. Next
// (and so Run and RunAt) is safe for concurrent use: several tasks may
// share one sensor.
type Sensor struct {
	// ID names the sensor (used in MQTT topics).
	ID string
	// Index is the dense numeric identity embedded in samples.
	Index uint16
	// Kind is the modality.
	Kind Type
	// RateHz is the sampling rate (samples per second); must be > 0.
	RateHz float64
	// Gen produces readings; nil means Constant(0,0,0).
	Gen Generator
	// Clock supplies time; nil means the wall clock.
	Clock clock.Clock

	mu  sync.Mutex // serializes seq and Gen
	seq uint32
}

// Next produces the sensor's next sample at time t.
func (s *Sensor) Next(t time.Time) Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.Gen
	if gen == nil {
		gen = Constant(0, 0, 0)
	}
	s.seq++
	return Sample{
		SensorIndex: s.Index,
		Kind:        s.Kind,
		Seq:         s.seq,
		Timestamp:   t,
		Values:      gen.Next(t),
	}
}

// Run emits samples at RateHz, invoking emit for each, until ctx is
// cancelled. It returns ctx.Err.
func (s *Sensor) Run(ctx context.Context, emit func(Sample)) error {
	return s.RunAt(ctx, s.RateHz, s.Clock, emit)
}

// RunAt is Run at rateHz on clk (nil means the wall clock). It leaves the
// sensor's own RateHz and Clock alone, so tasks sharing the sensor can
// each sample it at their own rate.
func (s *Sensor) RunAt(ctx context.Context, rateHz float64, clk clock.Clock, emit func(Sample)) error {
	if rateHz <= 0 {
		return fmt.Errorf("sensor %q: non-positive rate %v", s.ID, rateHz)
	}
	if clk == nil {
		clk = clock.NewReal()
	}
	period := time.Duration(float64(time.Second) / rateHz)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case now := <-clk.After(period):
			emit(s.Next(now))
		}
	}
}
