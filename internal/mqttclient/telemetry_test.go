package mqttclient

import (
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

func TestClientMetrics(t *testing.T) {
	fb := newFakeBroker(t)
	reg := telemetry.NewRegistry()
	conn, err := fb.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	opts := NewOptions("metered")
	opts.Registry = reg
	c, err := Connect(conn, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	seen := make(chan Message, 8)
	if _, err := c.Subscribe("t", wire.QoS0, func(m Message) { seen <- m }); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("t", []byte("a"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("t", []byte("b"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-seen:
		case <-time.After(5 * time.Second):
			t.Fatal("echo timeout")
		}
	}

	id := telemetry.L("client", "metered")
	if n := reg.Counter("ifot_client_publish_total", "", id).Value(); n != 2 {
		t.Fatalf("published = %d, want 2", n)
	}
	if n := reg.Counter("ifot_client_received_total", "", id).Value(); n != 2 {
		t.Fatalf("received = %d, want 2", n)
	}
	// One QoS 1 round trip: the four quantile gauges exist, and max reads
	// the sample.
	rtt := map[string]float64{}
	for _, s := range reg.Samples() {
		if s.Name == "ifot_client_puback_seconds" {
			var client, q string
			for _, l := range s.Labels {
				switch l.Name {
				case "client":
					client = l.Value
				case "quantile":
					q = l.Value
				}
			}
			if client == "metered" {
				rtt[q] = s.Value
			}
		}
	}
	for _, q := range []string{"0.5", "0.95", "0.99", "max"} {
		if _, ok := rtt[q]; !ok {
			t.Fatalf("puback quantile %q gauge missing; got %v", q, rtt)
		}
	}
	if rtt["max"] <= 0 {
		t.Fatalf("puback max = %v after one QoS 1 round trip, want > 0", rtt["max"])
	}
	if n := c.metrics.ackRTT.Count(); n != 1 {
		t.Fatalf("puback RTT samples = %d, want 1 (QoS1 publish only)", n)
	}
}
