package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"github.com/ifot-middleware/ifot/internal/telemetry"
)

var timeType = reflect.TypeOf(time.Time{})

// jsonStrings are the string values the differential test draws from:
// ones appended as they are, and every kind appendJSONString hands to
// json.Marshal (escapes, HTML characters, non-ASCII, invalid UTF-8, the
// line separators json escapes).
var jsonStrings = []string{
	"", "fig9", "joinE", "module-7", "a b~c", "pos", "anomaly",
	`q"uote`, `back\slash`, "<script>", "1<2", "a&b", "x>y", "tab\tnew\nline",
	"\x00\x1f\x7f", "héllo", "日本", "\xff", "a\xc3", "  ", "�",
}

// randomFloat draws from every formatting regime encoding/json has: zero
// and negative zero, 'f' notation, 'e' notation below 1e-6 and from 1e21,
// the boundaries themselves and the extremes.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return (rng.Float64() - 0.5) * 1e-6
	case 3:
		return (rng.Float64() - 0.5) * 1e30
	case 4:
		return []float64{1e-6, -1e-6, 1e21, -1e21, 1e-7, 1e20, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}[rng.Intn(9)]
	case 5:
		return float64(rng.Int63n(1e6) - 5e5)
	case 6:
		return math.Float64frombits(rng.Uint64()) // any bit pattern; redrawn if not finite
	default:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-10))
	}
}

// randomTime draws instants in years 0..9999 in UTC, the local zone and
// fixed zones of any offset below 24 hours, and the zero time.
func randomTime(rng *rand.Rand) time.Time {
	if rng.Intn(8) == 0 {
		return time.Time{}
	}
	const minSec, maxSec = -62167219200, 253402300799 // 0000-01-01 .. 9999-12-31 UTC
	t := time.Unix(minSec+rng.Int63n(maxSec-minSec), rng.Int63n(1e9))
	if rng.Intn(3) == 0 {
		t = t.Truncate(time.Second) // no fractional part
	}
	switch rng.Intn(4) {
	case 0:
		t = t.UTC()
	case 1:
		t = t.In(time.FixedZone("", (rng.Intn(2*24*60-1)-(24*60-1))*60))
	case 2:
		t = time.Now().Add(time.Duration(rng.Int63n(int64(time.Hour)))) // carries a monotonic reading
	}
	// A shift into a far zone may push year 0 or 9999 out of range.
	if y := t.Year(); y < 0 || y > 9999 {
		return t.UTC()
	}
	return t
}

// fillRandom sets every exported field under v to a random value, a zero
// one a quarter of the time so omitempty is exercised. A field of a kind
// it does not know fails the test: appendJSON must learn it first.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value, path string) {
	t.Helper()
	if v.Type() == timeType {
		v.Set(reflect.ValueOf(randomTime(rng)))
		return
	}
	zero := rng.Intn(4) == 0
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s: unexported field; extend fillRandom", path, f.Name)
			}
			fillRandom(t, rng, v.Field(i), path+"."+f.Name)
		}
	case reflect.Pointer:
		if zero {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fillRandom(t, rng, v.Elem(), path)
	case reflect.String:
		if zero {
			v.SetString("")
			return
		}
		v.SetString(jsonStrings[rng.Intn(len(jsonStrings))])
	case reflect.Float64:
		f := randomFloat(rng)
		for math.IsNaN(f) || math.IsInf(f, 0) {
			f = randomFloat(rng)
		}
		v.SetFloat(f)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if !zero {
			v.SetUint(rng.Uint64() >> (64 - v.Type().Bits()))
		}
	case reflect.Int64:
		if !zero {
			v.SetInt(int64(rng.Uint64()))
		}
	default:
		t.Fatalf("%s: field kind %s not covered; extend fillRandom and appendJSON", path, v.Kind())
	}
}

// jsonAppender is what the differential tests hold to json.Marshal.
type jsonAppender interface {
	appendJSON(dst []byte) ([]byte, error)
}

type traceContextAppender struct{ *TraceContext }

func (a traceContextAppender) appendJSON(dst []byte) ([]byte, error) {
	return a.TraceContext.appendJSON(dst), nil
}

type traceKeyAppender struct{ *telemetry.TraceKey }

func (a traceKeyAppender) appendJSON(dst []byte) ([]byte, error) {
	return appendTraceKeyJSON(dst, *a.TraceKey), nil
}

// TestAppendJSONMatchesMarshal fills every exported field of Decision,
// TrainEvent, TraceContext and TraceKey by reflection and requires
// appendJSON's bytes to equal json.Marshal's. A field added to any of
// them without appendJSON learning it fails here.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	prefix := []byte("prefix:")
	cases := []struct {
		name string
		make func() (any, jsonAppender)
	}{
		{"Decision", func() (any, jsonAppender) { d := new(Decision); return d, d }},
		{"TrainEvent", func() (any, jsonAppender) { ev := new(TrainEvent); return ev, ev }},
		{"TraceContext", func() (any, jsonAppender) { tc := new(TraceContext); return tc, traceContextAppender{tc} }},
		{"TraceKey", func() (any, jsonAppender) { k := new(telemetry.TraceKey); return k, traceKeyAppender{k} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < 5000; i++ {
				v, enc := c.make()
				fillRandom(t, rng, reflect.ValueOf(v).Elem(), c.name)
				want, err := json.Marshal(v)
				if err != nil {
					t.Fatalf("json.Marshal(%+v): %v", v, err)
				}
				got, err := enc.appendJSON(append([]byte(nil), prefix...))
				if err != nil {
					t.Fatalf("appendJSON(%+v): %v", v, err)
				}
				if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("appendJSON(%+v)\n got %s\nwant %s%s", v, got, prefix, want)
				}
			}
		})
	}
}

// appendJSON fails exactly where json.Marshal does, leaving dst as it was.
func TestAppendJSONErrorsWhereMarshalDoes(t *testing.T) {
	ok := time.Unix(1700000000, 5)
	cases := map[string]Decision{
		"NaN score":      {Score: math.NaN(), SensedAt: ok, At: ok},
		"+Inf score":     {Score: math.Inf(1), SensedAt: ok, At: ok},
		"-Inf score":     {Score: math.Inf(-1), SensedAt: ok, At: ok},
		"year 10000":     {SensedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), At: ok},
		"year -1":        {SensedAt: ok, At: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		"zone +24h":      {SensedAt: ok.In(time.FixedZone("", 24*3600)), At: ok},
		"zone -100h":     {SensedAt: ok, At: ok.In(time.FixedZone("", -100*3600))},
		"zone +23h59 ok": {SensedAt: ok.In(time.FixedZone("", 24*3600-60)), At: ok},
	}
	for name, d := range cases {
		_, wantErr := json.Marshal(d)
		got, err := d.appendJSON([]byte("kept"))
		if (err != nil) != (wantErr != nil) {
			t.Errorf("%s: appendJSON error %v, json.Marshal error %v", name, err, wantErr)
		}
		if err != nil && string(got) != "kept" {
			t.Errorf("%s: failed appendJSON returned %q, want dst unchanged", name, got)
		}
		ev := TrainEvent{SensedAt: d.SensedAt, At: d.At}
		_, wantErr = json.Marshal(ev)
		if _, err := ev.appendJSON(nil); (err != nil) != (wantErr != nil) {
			t.Errorf("%s: TrainEvent appendJSON error %v, json.Marshal error %v", name, err, wantErr)
		}
	}
}

// FuzzDecisionJSON: appendJSON is byte-equal to json.Marshal, errors
// where it errors, and what it writes decodes through DecodeJSON back to
// the same decision.
func FuzzDecisionJSON(f *testing.F) {
	f.Add("fig9", "predict", "pos", 1.25, uint32(7), int64(1700000000123456789), int32(0), true, "moduleE", uint8(2))
	f.Add("<a&b>", "task\"id", "x>y", -3.5, uint32(0), int64(0), int32(60), false, "", uint8(0))
	f.Add("héllo", "日本", " ", 1e-7, uint32(1), int64(-1), int32(-330), true, "ünï", uint8(255))
	f.Add("\xff", "a\xc3", "", 1e21, uint32(math.MaxUint32), int64(math.MaxInt64), int32(1440), true, "\xff", uint8(1))
	f.Add("zero", "neg", "anomaly", math.Copysign(0, -1), uint32(3), int64(math.MinInt64), int32(-1439), false, "m", uint8(9))
	f.Add("big", "t", "anomaly", math.MaxFloat64, uint32(5), int64(42), int32(0), false, "", uint8(0))
	f.Fuzz(func(t *testing.T, recipe, taskID, label string, score float64, seq uint32, sensedNano int64, zone int32, traced bool, module string, hops uint8) {
		// Whole-minute offsets, the only ones RFC 3339 carries, up to ±36h
		// so the ≥24h refusal is reached.
		sensed := time.Unix(0, sensedNano).In(time.FixedZone("", int(zone)%(36*60)*60))
		d := Decision{
			Recipe: recipe, TaskID: taskID, Kind: "predict", Label: label, Score: score, Seq: seq,
			SensedAt: sensed, At: time.Unix(0, sensedNano/2).UTC(),
		}
		if traced {
			d.Trace = &TraceContext{
				Key:            telemetry.TraceKey{Recipe: recipe, TaskID: taskID, Seq: seq},
				OriginUnixNano: sensedNano, OriginModule: module, Hops: hops,
			}
		}
		want, wantErr := json.Marshal(d)
		got, err := d.appendJSON([]byte("{"))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendJSON error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			if string(got) != "{" {
				t.Fatalf("failed appendJSON returned %q, want dst unchanged", got)
			}
			return
		}
		if !bytes.Equal(got[1:], want) {
			t.Fatalf("appendJSON\n got %s\nwant %s", got[1:], want)
		}
		var back Decision
		if err := DecodeJSON(got[1:], &back); err != nil {
			t.Fatalf("DecodeJSON(%s): %v", got[1:], err)
		}
		if math.Float64bits(back.Score) != math.Float64bits(d.Score) || back.Seq != d.Seq ||
			!back.SensedAt.Equal(d.SensedAt) ||
			!back.At.Equal(d.At) || (back.Trace == nil) != (d.Trace == nil) {
			t.Fatalf("round trip: got %+v, want %+v", back, d)
		}
		for _, s := range [][2]string{{back.Recipe, d.Recipe}, {back.TaskID, d.TaskID}, {back.Label, d.Label}} {
			if utf8.ValidString(s[1]) && s[0] != s[1] {
				t.Fatalf("round trip: string %q came back %q", s[1], s[0])
			}
		}
		if d.Trace != nil && (back.Trace.Key.Seq != d.Trace.Key.Seq || back.Trace.Hops != d.Trace.Hops ||
			back.Trace.OriginUnixNano != d.Trace.OriginUnixNano) {
			t.Fatalf("round trip: trace %+v, want %+v", back.Trace, d.Trace)
		}
		again, err := back.appendJSON(nil)
		if want, _ := json.Marshal(back); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("decoded decision: appendJSON %s (%v), json.Marshal %s", again, err, want)
		}
	})
}

// TestAppendJSONAllocs pins the data plane's JSON encoders at zero
// allocations into a buffer with room.
func TestAppendJSONAllocs(t *testing.T) {
	now := time.Now()
	tc := &TraceContext{Key: telemetry.TraceKey{Recipe: "fig9", TaskID: "sense", Seq: 7}, OriginUnixNano: now.UnixNano(), OriginModule: "moduleA", Hops: 2}
	d := Decision{Recipe: "fig9", TaskID: "predict", Kind: "predict", Label: "pos", Score: 1.25, Seq: 7, SensedAt: now, At: now, Trace: tc}
	ev := TrainEvent{Recipe: "fig9", TaskID: "train", Seq: 7, SensedAt: now, At: now, Examples: 1234, Trace: tc}
	buf := make([]byte, 0, 1024)
	for name, enc := range map[string]jsonAppender{"Decision": &d, "TrainEvent": &ev} {
		n := testing.AllocsPerRun(1000, func() {
			var err error
			if buf, err = enc.appendJSON(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%s.appendJSON: %v allocs, want 0", name, n)
		}
	}
}
