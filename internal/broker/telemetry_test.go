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

// TestDroppedCountersAgree holds the registry's dropped series, Stats and
// the one definition of a drop together: a message that matched a
// subscription and that no session accepted or parked. After each step
// the three counts are equal.
func TestDroppedCountersAgree(t *testing.T) {
	reg := telemetry.NewRegistry()
	bus := newTestBus(t, Options{Registry: reg, sessionQueueSize: 1})
	b := bus.broker
	var want int64
	check := func(step string) {
		t.Helper()
		sample := int64(-1)
		for _, s := range reg.Samples() {
			if s.Name == "ifot_broker_messages_dropped_total" {
				sample = int64(s.Value)
			}
		}
		if stats := b.Stats().MessagesDropped; sample != want || stats != want {
			t.Fatalf("%s: registry %d, Stats %d, want %d", step, sample, stats, want)
		}
	}

	// A persistent QoS 1 subscriber, parked.
	opts := mqttclient.NewOptions("parked")
	opts.CleanSession = false
	parked := bus.connect(t, opts)
	if _, err := parked.Subscribe("park/#", wire.QoS1, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := parked.Disconnect(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscriber parked", func() bool { return b.Stats().ConnectedClients == 0 })
	check("parked")

	for i := 0; i < 5; i++ {
		b.Publish("park/t", []byte("x"), wire.QoS0, false)
	}
	want += 5
	check("QoS 0 to an offline session")

	for i := 0; i < maxQueuedOffline+3; i++ {
		b.Publish("park/t", []byte("x"), wire.QoS1, false)
	}
	want += 3
	check("parked window trimmed")

	b.Publish("park/+", []byte("x"), wire.QoS1, false)
	want++
	check("unroutable topic")

	// A raw subscriber whose writer is stuck inside a write: the one-slot
	// queue takes one more message, and the rest are dropped.
	conn, err := bus.listener.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, step := range []struct {
		send wire.Packet
		want wire.PacketType
	}{
		{&wire.ConnectPacket{ClientID: "stuck", CleanSession: true}, wire.CONNACK},
		{&wire.SubscribePacket{PacketID: 1, Subscriptions: []wire.Subscription{
			{TopicFilter: "full/q0"}, {TopicFilter: "full/q1", QoS: wire.QoS1},
		}}, wire.SUBACK},
	} {
		if err := wire.WritePacket(conn, step.send); err != nil {
			t.Fatal(err)
		}
		if pkt, err := wire.ReadPacket(conn, 1<<20); err != nil || pkt.Type() != step.want {
			t.Fatalf("handshake: got %v, %v; want %v", pkt, err, step.want)
		}
	}
	b.Publish("full/q0", []byte("x"), wire.QoS0, false)
	// The first byte read means the writer is inside the write of that
	// message; the pipe holds it there until the rest is read.
	if _, err := conn.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		b.Publish("full/q0", []byte("x"), wire.QoS0, false)
	}
	want += 5
	check("full queue")

	// A QoS 1 message the full queue refuses is parked, not dropped.
	b.Publish("full/q1", []byte("x"), wire.QoS1, false)
	check("QoS 1 parked by a full queue")
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
