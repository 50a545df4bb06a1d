package telemetry

import (
	"testing"
	"time"
)

func TestMQTTExporterPublishOnce(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ifot_broker_publish_total", "per topic", L("topic", "rt/s0")).Add(9)
	reg.Gauge("ifot_broker_clients", "connected").Set(3)
	h := NewLogHistogram()
	h.Observe(500 * time.Millisecond)
	RegisterQuantileGauges(reg, "ifot_pipeline_seconds", "e2e", h)

	type msg struct {
		topic   string
		payload string
		retain  bool
	}
	var got []msg
	exp := NewMQTTExporter("$SYS/broker/metrics/", reg, func(topic string, payload []byte, retain bool) {
		got = append(got, msg{topic, string(payload), retain})
	})
	exp.PublishOnce()

	want := map[string]string{
		"$SYS/broker/metrics/ifot/broker/publish/total/rt/s0": "9",
		"$SYS/broker/metrics/ifot/broker/clients":             "3",
		"$SYS/broker/metrics/ifot/pipeline/seconds/max":       "0.50",
	}
	byTopic := map[string]msg{}
	for _, m := range got {
		if !m.retain {
			t.Errorf("message on %s not retained", m.topic)
		}
		byTopic[m.topic] = m
	}
	for topic, payload := range want {
		m, ok := byTopic[topic]
		if !ok {
			t.Errorf("missing topic %s (got %v)", topic, got)
			continue
		}
		if m.payload != payload {
			t.Errorf("topic %s payload = %q, want %q", topic, m.payload, payload)
		}
	}
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"}, {5, "5"}, {-2, "-2"}, {1.5, "1.50"}, {0.123, "0.12"},
	} {
		if got := FormatValue(tc.in); got != tc.want {
			t.Errorf("FormatValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
