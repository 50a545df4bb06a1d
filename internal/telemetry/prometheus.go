package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers per family, one
// line per series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family/series structure, then release the lock before
	// touching the (individually synchronized) metric values so slow
	// writers never stall metric updates.
	type famSnap struct {
		name, help string
		kind       Kind
		series     []*series
	}
	fams := make([]famSnap, 0, len(r.order))
	for _, name := range r.order {
		fam := r.fams[name]
		fs := famSnap{name: fam.name, help: fam.help, kind: fam.kind}
		for _, sig := range fam.order {
			fs.series = append(fs.series, fam.by[sig])
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()

	for _, fam := range fams {
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.name, escapeHelp(fam.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.kind); err != nil {
			return err
		}
		for _, s := range fam.series {
			if err := writeSample(w, fam.name, s.labels, s.value()); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSample renders one exposition line.
func writeSample(w io.Writer, name string, labels []Label, v float64) error {
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
