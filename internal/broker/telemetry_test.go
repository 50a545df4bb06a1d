package broker

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

func TestBrokerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	bus := newTestBus(t, Options{Registry: reg})

	sub := bus.connect(t, mqttclient.NewOptions("m-sub"))
	pub := bus.connect(t, mqttclient.NewOptions("m-pub"))
	got := make(chan mqttclient.Message, 16)
	if _, err := sub.Subscribe("rt/s0", wire.QoS0, func(m mqttclient.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := pub.Publish("rt/s0", []byte("x"), wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("delivery timeout")
		}
	}

	if n := reg.Counter("ifot_broker_messages_received_total", "").Value(); n != 3 {
		t.Fatalf("received counter = %d, want 3", n)
	}
	if n := reg.Counter("ifot_broker_publish_total", "", telemetry.L("topic", "rt/s0")).Value(); n != 3 {
		t.Fatalf("per-topic counter = %d, want 3", n)
	}
	waitFor(t, "delivered counter", func() bool {
		return reg.Counter("ifot_broker_messages_delivered_total", "").Value() >= 3
	})
	if g := reg.Gauge("ifot_broker_clients_connected", "").Value(); g != 2 {
		t.Fatalf("clients gauge = %v, want 2", g)
	}
	if up := reg.Gauge("ifot_broker_uptime_seconds", "").Value(); up < 0 {
		t.Fatalf("uptime gauge = %v", up)
	}
}

func TestBrokerPerTopicCardinalityBounded(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := New(Options{Registry: reg})
	defer b.Close()
	for i := 0; i < maxPublishTopics*2; i++ {
		b.Publish("flood/"+strconv.Itoa(i), []byte("x"), wire.QoS0, false)
	}
	counts := b.PublishCounts()
	if len(counts) > maxPublishTopics+1 {
		t.Fatalf("per-topic accounting grew to %d keys", len(counts))
	}
	if counts[overflowTopicKey] != maxPublishTopics {
		t.Fatalf("overflow bucket = %d, want %d", counts[overflowTopicKey], maxPublishTopics)
	}
	if n := reg.SeriesCount("ifot_broker_publish_total"); n > maxPublishTopics+1 {
		t.Fatalf("metric cardinality %d exceeds bound", n)
	}
	// $SYS traffic must not enter per-topic accounting.
	b.Publish(SysTopicPrefix+"uptime", []byte("1 seconds"), wire.QoS0, true)
	if _, ok := b.PublishCounts()[SysTopicPrefix+"uptime"]; ok {
		t.Fatal("$SYS topic leaked into publish accounting")
	}
}

// TestRetainedStoreRouteAtomic drives a stream of monotonically increasing
// retained publishes while other clients repeatedly subscribe. Because
// store+route happen under one broker lock, each subscriber's message
// stream (retained replay, then live messages) must never go backwards.
// Run with -race to also exercise the locking.
func TestRetainedStoreRouteAtomic(t *testing.T) {
	bus := newTestBus(t, Options{})
	const topic = "atomic/counter"

	stop := make(chan struct{})
	pub := bus.connect(t, mqttclient.NewOptions("writer"))
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for v := 1; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := pub.Publish(topic, []byte(strconv.Itoa(v)), wire.QoS0, true); err != nil {
				return
			}
		}
	}()

	for round := 0; round < 20; round++ {
		c := bus.connect(t, mqttclient.NewOptions("reader-"+strconv.Itoa(round)))
		var mu sync.Mutex
		last := -1
		violation := ""
		if _, err := c.Subscribe(topic, wire.QoS0, func(m mqttclient.Message) {
			v, err := strconv.Atoi(string(m.Payload))
			if err != nil {
				return
			}
			mu.Lock()
			if v < last && violation == "" {
				violation = strconv.Itoa(v) + " after " + strconv.Itoa(last)
			}
			last = v
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		if violation != "" {
			mu.Unlock()
			t.Fatalf("round %d: stream went backwards: %s", round, violation)
		}
		mu.Unlock()
		_ = c.Close()
	}
	close(stop)
	writerWG.Wait()
}
