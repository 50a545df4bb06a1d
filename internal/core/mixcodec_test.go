package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
)

// mixDeltaMap flattens a decoded MixDelta to label -> feature name -> value
// for order-insensitive comparison.
func mixDeltaMap(d *ml.MixDelta, syms *feature.Symbols) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(d.Labels))
	for i := range d.Labels {
		ld := &d.Labels[i]
		w := make(map[string]float64, len(ld.IDs))
		for j, id := range ld.IDs {
			w[syms.Name(id)] = ld.Vals[j]
		}
		out[ld.Label] = w
	}
	return out
}

func buildMixDelta(syms *feature.Symbols, weights map[string]map[string]float64) *ml.MixDelta {
	var d ml.MixDelta
	for label, w := range weights {
		ld := d.Grow(label)
		for name, v := range w {
			ld.IDs = append(ld.IDs, syms.Intern(name))
			ld.Vals = append(ld.Vals, v)
		}
		ld.Sort()
	}
	return &d
}

func TestMixCodecRoundTrip(t *testing.T) {
	syms := feature.DefaultSymbols()
	weights := map[string]map[string]float64{
		"hot":  {"s1@mean": 0.25, "s2@last": -1.5, "t9@stddev": 1e-12},
		"cold": {"s1@mean": -0.25, "shared@x": 42},
		"idle": {},
	}
	d := buildMixDelta(syms, weights)
	h := MixHeader{
		ModuleID: "module-7",
		Shard:    3,
		Round:    129,
		Keyframe: true,
		At:       time.Unix(0, 1700000000123456789),
	}
	enc := AppendEncodeMix(nil, h, d, syms)

	var got ml.MixDelta
	gh, err := DecodeMix(enc, syms, &got)
	if err != nil {
		t.Fatalf("DecodeMix: %v", err)
	}
	if gh.ModuleID != h.ModuleID || gh.Shard != h.Shard || gh.Round != h.Round ||
		gh.Keyframe != h.Keyframe || !gh.At.Equal(h.At) {
		t.Fatalf("header mismatch: got %+v want %+v", gh, h)
	}
	gm := mixDeltaMap(&got, syms)
	for label, w := range weights {
		for name, v := range w {
			if gm[label][name] != v {
				t.Fatalf("weight %s/%s = %v, want exact %v", label, name, gm[label][name], v)
			}
		}
		if len(gm[label]) != len(w) {
			t.Fatalf("label %s: %d entries, want %d", label, len(gm[label]), len(w))
		}
	}
	if len(gm) != len(weights) {
		t.Fatalf("labels %d, want %d (empty labels must survive)", len(gm), len(weights))
	}
}

func TestMixCodecBufferReuseAndDeltaFlag(t *testing.T) {
	syms := feature.DefaultSymbols()
	d := buildMixDelta(syms, map[string]map[string]float64{"hot": {"a@x": 1}})
	h := MixHeader{ModuleID: "m", Round: 1}
	enc := AppendEncodeMix(nil, h, d, syms)
	// Re-encoding into the truncated buffer must produce identical bytes.
	enc2 := AppendEncodeMix(enc[:0], h, d, syms)
	var got ml.MixDelta
	gh, err := DecodeMix(enc2, syms, &got)
	if err != nil {
		t.Fatalf("DecodeMix after reuse: %v", err)
	}
	if gh.Keyframe {
		t.Fatal("delta payload decoded as keyframe")
	}
}

// legacyJSONSnapshot is a pre-delta deployment's retained JSON snapshot, the
// one well-formed payload a durable broker may still hold that this build
// must reject rather than fold into a model.
const legacyJSONSnapshot = `{"moduleId":"legacy-1","shard":2,"weights":{"hot":{"s1@mean":0.5}},"at":"2023-11-14T22:13:20Z"}`

func TestMixCodecRejectsLegacyJSON(t *testing.T) {
	var d ml.MixDelta
	_, err := DecodeMix([]byte(legacyJSONSnapshot), feature.DefaultSymbols(), &d)
	if !errors.Is(err, ErrBadMixPayload) {
		t.Fatalf("DecodeMix(json) = %v, want ErrBadMixPayload", err)
	}
}

func TestMixCodecRejectsMalformed(t *testing.T) {
	syms := feature.DefaultSymbols()
	d := buildMixDelta(syms, map[string]map[string]float64{"hot": {"a@x": 1, "b@x": 2}})
	valid := AppendEncodeMix(nil, MixHeader{ModuleID: "m", Round: 1}, d, syms)

	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    {0x00, 0x01, 0x00},
		"bad version":  {0xCE, 0x09, 0x00},
		"magic only":   {0xCE},
		"truncated":    valid[:len(valid)-3],
		"trailing":     append(append([]byte{}, valid...), 0x00),
		"not json":     []byte("{nope"),
		"nan weight":   nanPayload(syms),
		"huge counts":  {0xCE, mixVersion, 0x00, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0x01, 'm', 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"dup name":     dupNamePayload(),
		"nonascending": nonAscendingPayload(),
	}
	var out ml.MixDelta
	for name, payload := range cases {
		if _, err := DecodeMix(payload, syms, &out); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

// nanPayload encodes a valid frame then corrupts a weight into a NaN.
func nanPayload(syms *feature.Symbols) []byte {
	d := buildMixDelta(syms, map[string]map[string]float64{"hot": {"a@x": 1}})
	enc := AppendEncodeMix(nil, MixHeader{ModuleID: "m"}, d, syms)
	nan := math.Float64bits(math.NaN())
	for i := 0; i < 8; i++ {
		enc[len(enc)-8+i] = byte(nan >> (8 * i))
	}
	return enc
}

// dupNamePayload hand-assembles a frame whose name table repeats a name.
func dupNamePayload() []byte {
	b := []byte{0xCE, mixVersion, 0x00, 0x00, 0x00}
	b = append(b, make([]byte, 8)...)         // At
	b = append(b, 0x01, 'm')                  // moduleID
	b = append(b, 0x02, 0x01, 'a', 0x01, 'a') // table: "a","a"
	b = append(b, 0x00)                       // zero labels
	return b
}

// nonAscendingPayload repeats index delta 0 for the second entry.
func nonAscendingPayload() []byte {
	b := []byte{0xCE, mixVersion, 0x00, 0x00, 0x00}
	b = append(b, make([]byte, 8)...)         // At
	b = append(b, 0x01, 'm')                  // moduleID
	b = append(b, 0x02, 0x01, 'a', 0x01, 'b') // table: "a","b"
	b = append(b, 0x01)                       // one label
	b = append(b, 0x01, 'h')                  // label "h"
	b = append(b, 0x02, 0x00, 0x00)           // two entries, idx deltas 0,0
	b = append(b, make([]byte, 16)...)        // two float64 zeros
	return b
}

func TestMixCodecLongStringsSurvive(t *testing.T) {
	syms := feature.DefaultSymbols()
	long := strings.Repeat("f", 300) + "@mean"
	d := buildMixDelta(syms, map[string]map[string]float64{"hot": {long: 7}})
	enc := AppendEncodeMix(nil, MixHeader{ModuleID: strings.Repeat("m", 200)}, d, syms)
	var got ml.MixDelta
	h, err := DecodeMix(enc, syms, &got)
	if err != nil {
		t.Fatalf("DecodeMix: %v", err)
	}
	if len(h.ModuleID) != 200 {
		t.Fatalf("moduleID length %d, want 200", len(h.ModuleID))
	}
	if mixDeltaMap(&got, syms)["hot"][long] != 7 {
		t.Fatal("long feature name lost")
	}
}

// FuzzDecodeMixSnapshot: arbitrary bytes must never panic, and any payload
// that decodes successfully must survive a re-encode/decode round trip with
// every weight preserved exactly.
func FuzzDecodeMixSnapshot(f *testing.F) {
	syms := feature.DefaultSymbols()
	seed := buildMixDelta(syms, map[string]map[string]float64{
		"hot":  {"s1@mean": 0.25, "s2@last": -1.5},
		"cold": {"s1@mean": -0.25},
	})
	f.Add(AppendEncodeMix(nil, MixHeader{ModuleID: "fuzz", Shard: 1, Round: 42, At: time.Unix(0, 123)}, seed, syms))
	f.Add(AppendEncodeMix(nil, MixHeader{ModuleID: "kf", Keyframe: true}, &ml.MixDelta{}, syms))
	f.Add([]byte(legacyJSONSnapshot))
	f.Add([]byte{0xCE})
	f.Add([]byte{0xCE, 0x01, 0x00})
	f.Add([]byte("{"))

	f.Fuzz(func(t *testing.T, payload []byte) {
		var d ml.MixDelta
		h, err := DecodeMix(payload, syms, &d)
		if err != nil {
			if !errors.Is(err, ErrBadMixPayload) {
				t.Fatalf("decode error does not wrap ErrBadMixPayload: %v", err)
			}
			return
		}
		if payload[0] != mixMagic {
			t.Fatalf("decode accepted a non-binary payload (first byte 0x%02x)", payload[0])
		}
		for i := range d.Labels {
			for _, v := range d.Labels[i].Vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("decode accepted non-finite weight %v", v)
				}
			}
		}
		enc := AppendEncodeMix(nil, h, &d, syms)
		var d2 ml.MixDelta
		h2, err := DecodeMix(enc, syms, &d2)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v", err)
		}
		if h2.ModuleID != h.ModuleID || h2.Shard != h.Shard || h2.Round != h.Round || h2.Keyframe != h.Keyframe {
			t.Fatalf("header changed across round trip: %+v vs %+v", h, h2)
		}
		a, b := mixDeltaMap(&d, syms), mixDeltaMap(&d2, syms)
		if len(a) != len(b) {
			t.Fatalf("label count changed: %d vs %d", len(a), len(b))
		}
		for label, w := range a {
			for name, v := range w {
				if b[label][name] != v {
					t.Fatalf("weight %s/%s changed: %v vs %v", label, name, v, b[label][name])
				}
			}
			if len(b[label]) != len(w) {
				t.Fatalf("label %s entry count changed", label)
			}
		}
	})
}
