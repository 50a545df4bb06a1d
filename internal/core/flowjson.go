package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// The data plane's two JSON outputs, Decision and TrainEvent, are encoded
// by appending, without reflection: the bytes are exactly json.Marshal's
// (field order, omitempty, float and time formatting, string escaping),
// which the differential tests and FuzzDecisionJSON hold it to. Each
// appendJSON returns dst unchanged with an error where json.Marshal fails:
// a non-finite float, or a time RFC 3339 cannot represent.

var errJSONTime = errors.New("core: time outside RFC 3339's range")

// appendJSON appends d as json.Marshal would encode it.
func (d *Decision) appendJSON(dst []byte) ([]byte, error) {
	b := append(dst, `{"recipe":`...)
	b = appendJSONString(b, d.Recipe)
	b = append(b, `,"taskId":`...)
	b = appendJSONString(b, d.TaskID)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, d.Kind)
	if d.Label != "" {
		b = append(b, `,"label":`...)
		b = appendJSONString(b, d.Label)
	}
	b = append(b, `,"score":`...)
	b, ok := appendJSONFloat(b, d.Score)
	if !ok {
		return dst, fmt.Errorf("core: decision score %v is not JSON", d.Score)
	}
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, uint64(d.Seq), 10)
	b = append(b, `,"sensedAt":`...)
	if b, ok = appendJSONTime(b, d.SensedAt); !ok {
		return dst, errJSONTime
	}
	b = append(b, `,"at":`...)
	if b, ok = appendJSONTime(b, d.At); !ok {
		return dst, errJSONTime
	}
	if d.Trace != nil {
		b = append(b, `,"trace":`...)
		b = d.Trace.appendJSON(b)
	}
	return append(b, '}'), nil
}

// appendJSON appends ev as json.Marshal would encode it.
func (ev *TrainEvent) appendJSON(dst []byte) ([]byte, error) {
	b := append(dst, `{"recipe":`...)
	b = appendJSONString(b, ev.Recipe)
	b = append(b, `,"taskId":`...)
	b = appendJSONString(b, ev.TaskID)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, uint64(ev.Seq), 10)
	b = append(b, `,"sensedAt":`...)
	b, ok := appendJSONTime(b, ev.SensedAt)
	if !ok {
		return dst, errJSONTime
	}
	b = append(b, `,"at":`...)
	if b, ok = appendJSONTime(b, ev.At); !ok {
		return dst, errJSONTime
	}
	b = append(b, `,"examples":`...)
	b = strconv.AppendInt(b, ev.Examples, 10)
	if ev.Trace != nil {
		b = append(b, `,"trace":`...)
		b = ev.Trace.appendJSON(b)
	}
	return append(b, '}'), nil
}

// appendJSON appends tc as json.Marshal would encode it; it cannot fail.
func (tc *TraceContext) appendJSON(b []byte) []byte {
	b = append(b, `{"key":`...)
	b = appendTraceKeyJSON(b, tc.Key)
	if tc.OriginUnixNano != 0 {
		b = append(b, `,"originUnixNano":`...)
		b = strconv.AppendInt(b, tc.OriginUnixNano, 10)
	}
	if tc.OriginModule != "" {
		b = append(b, `,"originModule":`...)
		b = appendJSONString(b, tc.OriginModule)
	}
	b = append(b, `,"hops":`...)
	b = strconv.AppendUint(b, uint64(tc.Hops), 10)
	return append(b, '}')
}

func appendTraceKeyJSON(b []byte, k telemetry.TraceKey) []byte {
	b = append(b, `{"recipe":`...)
	b = appendJSONString(b, k.Recipe)
	b = append(b, `,"taskId":`...)
	b = appendJSONString(b, k.TaskID)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, uint64(k.Seq), 10)
	return append(b, '}')
}

// appendJSONString appends s quoted. A string of printable ASCII other
// than the characters encoding/json escapes ('"', '\\', and the HTML
// characters '<', '>', '&') is appended as it is; any other string, rare
// on the data plane, is quoted by json.Marshal itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json formats a float64: 'f'
// notation, or 'e' below 1e-6 and from 1e21 with a two-digit negative
// exponent shortened ("e-07" → "e-7"). ok is false for NaN and ±Inf,
// which JSON cannot carry.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendJSONTime appends t quoted in RFC 3339 with nanoseconds, as
// time.Time.MarshalJSON does, and like it refuses (ok false) a year
// outside [0,9999] or a zone offset of 24 hours or more.
func appendJSONTime(b []byte, t time.Time) ([]byte, bool) {
	n0 := len(b)
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n0+len(`"9999`)] != '-' {
		return b[:n0], false
	}
	if b[len(b)-1] != 'Z' {
		zone := b[len(b)-len("+07:00"):]
		if c := zone[0]; '0' <= c && c <= '9' || 10*(zone[1]-'0')+zone[2]-'0' >= 24 {
			return b[:n0], false
		}
	}
	return append(b, '"'), true
}
