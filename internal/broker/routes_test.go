package broker

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// TestPublishUnroutableTopicCountsAllDrops pins the drop accounting for
// messages whose topic cannot be encoded into a PUBLISH frame (reachable
// only through the internal Publish API, e.g. a wildcard in the topic
// name). Every matched subscriber — QoS1 ones included — must be counted
// as dropped, and no subscriber connection may be torn down by the
// unroutable message (previously the QoS1 packet's encode failure killed
// the subscriber's writer).
func TestPublishUnroutableTopicCountsAllDrops(t *testing.T) {
	bus := newTestBus(t, Options{})
	subA := bus.connect(t, mqttclient.NewOptions("sub-a"))
	subB := bus.connect(t, mqttclient.NewOptions("sub-b"))

	var mu sync.Mutex
	var gotA, gotB []string
	if _, err := subA.Subscribe("bad/#", wire.QoS0, func(m mqttclient.Message) {
		mu.Lock()
		gotA = append(gotA, m.Topic)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := subB.Subscribe("bad/#", wire.QoS1, func(m mqttclient.Message) {
		mu.Lock()
		gotB = append(gotB, m.Topic)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	base := bus.broker.Stats()
	// "bad/+" matches both "bad/#" subscriptions but is not a valid topic
	// *name*, so no frame or packet can be encoded for it.
	bus.broker.Publish("bad/+", []byte("x"), wire.QoS1, false)
	waitFor(t, "both matches counted dropped", func() bool {
		return bus.broker.Stats().MessagesDropped >= base.MessagesDropped+2
	})
	if d := bus.broker.Stats().MessagesDropped - base.MessagesDropped; d != 2 {
		t.Fatalf("dropped delta = %d, want exactly 2 (one per matched subscriber)", d)
	}

	// Both subscriber connections must have survived and still deliver.
	pub := bus.connect(t, mqttclient.NewOptions("pub"))
	if err := pub.Publish("bad/ok", []byte("y"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "valid publish delivered to both", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gotA) == 1 && len(gotB) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if gotA[0] != "bad/ok" || gotB[0] != "bad/ok" {
		t.Fatalf("subscribers saw %v / %v, want only the valid topic", gotA, gotB)
	}
}

// TestSubscriptionChurnUnderPublishLoad drives a sustained QoS1 publish
// stream at a stable subscriber while other clients churn subscriptions,
// forcing route-snapshot swaps mid-stream. The stable subscriber must see
// every message exactly once, in publish order — no delivery may be lost
// or duplicated across a swap. Run with -race this also exercises the
// epoch gate's reader/writer fencing.
func TestSubscriptionChurnUnderPublishLoad(t *testing.T) {
	bus := newTestBus(t, Options{sessionQueueSize: 4096})

	stable := bus.connect(t, mqttclient.NewOptions("stable"))
	var mu sync.Mutex
	var got []int
	if _, err := stable.Subscribe("churn/stable", wire.QoS1, func(m mqttclient.Message) {
		seq, err := strconv.Atoi(string(m.Payload))
		if err != nil {
			seq = -1
		}
		mu.Lock()
		got = append(got, seq)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	startEpoch := bus.broker.RouteEpoch()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		churner := bus.connect(t, mqttclient.NewOptions(fmt.Sprintf("churner-%d", c)))
		filters := []string{
			fmt.Sprintf("churn/noise%d/#", c),
			fmt.Sprintf("churn/+/n%d", c),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := filters[i%len(filters)]
				if _, err := churner.Subscribe(f, wire.QoS0, func(mqttclient.Message) {}); err != nil {
					return
				}
				if err := churner.Unsubscribe(f); err != nil {
					return
				}
			}
		}()
	}

	// Publish until both at least minPublishes went out and the churners
	// swapped the route snapshot at least minSwaps times meanwhile, so
	// the swap count does not depend on how fast the publisher runs.
	pub := bus.connect(t, mqttclient.NewOptions("pub"))
	const minPublishes, minSwaps = 300, 10
	deadline := time.Now().Add(30 * time.Second)
	n := 0
	for ; n < minPublishes || bus.broker.RouteEpoch()-startEpoch < minSwaps; n++ {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("after %d publishes only %d snapshot swaps; churners were starved", n, bus.broker.RouteEpoch()-startEpoch)
		}
		if err := pub.Publish("churn/stable", []byte(strconv.Itoa(n)), wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	waitFor(t, "stable subscriber caught up", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= n
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("received %d messages, want exactly %d", len(got), n)
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("position %d: got seq %d — delivery lost, duplicated, or reordered across a snapshot swap", i, seq)
		}
	}
	if swaps := bus.broker.RouteEpoch() - startEpoch; swaps < minSwaps {
		t.Fatalf("only %d snapshot swaps happened during the churn window; churners were starved", swaps)
	}
}

// TestRouteMatchZeroAllocs pins the acceptance criterion that the match
// step allocates nothing on the hot path: both the snapshot matcher (the
// single-filter fast path and the multi-filter merge path) and a route
// cache hit must be allocation-free once scratch buffers are warm.
func TestRouteMatchZeroAllocs(t *testing.T) {
	tbl := routesAfter(t, sub("c1", "iot/dev/+", wire.QoS0), sub("c2", "iot/dev/temp", wire.QoS1), sub("c2", "iot/#", wire.QoS0))
	epoch := tbl.epoch

	mb := getMatchBuf()
	defer mb.release()

	// Single-filter fast path: exactly one terminal node matches and the
	// result aliases its immutable subs slice.
	if n := testing.AllocsPerRun(200, func() {
		if len(tbl.match("iot/other", mb)) != 1 {
			t.Fatal("unexpected match count")
		}
	}); n != 0 {
		t.Fatalf("single-filter match allocates %.1f/op, want 0", n)
	}

	// Multi-filter merge path: three filters match, sessions dedup on
	// highest QoS in the pooled merge buffer.
	if n := testing.AllocsPerRun(200, func() {
		if len(tbl.match("iot/dev/temp", mb)) != 2 {
			t.Fatal("unexpected merge count")
		}
	}); n != 0 {
		t.Fatalf("merge match allocates %.1f/op, want 0", n)
	}

	// Route cache hit: one shard-map load, one cell load, epoch compare.
	var rc routeCache
	rc.store("iot/dev/temp", epoch, tbl.match("iot/dev/temp", mb), nil, true)
	if n := testing.AllocsPerRun(200, func() {
		if rc.lookup("iot/dev/temp", epoch) == nil {
			t.Fatal("unexpected cache miss")
		}
	}); n != 0 {
		t.Fatalf("cache hit allocates %.1f/op, want 0", n)
	}
}

// TestRouteCacheEpochInvalidation checks that a cached entry is served
// only for the epoch it was stored under, and that refreshing after a
// swap replaces the stale value in place.
func TestRouteCacheEpochInvalidation(t *testing.T) {
	var rc routeCache
	s := newSession("c", false)
	subs := []routeSub{{session: s, qos: wire.QoS1}}

	rc.store("a/b", 1, subs, nil, true)
	if v := rc.lookup("a/b", 1); v == nil || len(v.subs) != 1 || !v.valid {
		t.Fatalf("fresh lookup = %+v, want the stored route", v)
	}
	if v := rc.lookup("a/b", 2); v != nil {
		t.Fatal("stale-epoch lookup returned a value; must miss after a snapshot swap")
	}
	rc.store("a/b", 2, nil, nil, true)
	if v := rc.lookup("a/b", 2); v == nil || len(v.subs) != 0 {
		t.Fatalf("refreshed lookup = %+v, want the empty epoch-2 route", v)
	}
	if v := rc.lookup("a/b", 1); v != nil {
		t.Fatal("old epoch still served after refresh")
	}
}

// TestWideFanoutDeliversAll pins exactly-once delivery across a wide
// subscriber set: every subscriber receives exactly one copy of the frame.
func TestWideFanoutDeliversAll(t *testing.T) {
	b := New(Options{})
	defer b.Close()

	const n = 293
	chans := make([]chan outPacket, n)
	b.mu.Lock()
	for i := 0; i < n; i++ {
		s := newSession(fmt.Sprintf("f%d", i), false)
		b.sessions[s.clientID] = s
		b.subscribeLocked(s, "fan/t", wire.QoS0)
		ch, _, _ := s.attach(4)
		chans[i] = ch
	}
	b.swapRoutesLocked()
	b.mu.Unlock()

	// Publish returns only after the fan-out has completed, so the
	// channels can be inspected immediately.
	b.Publish("fan/t", []byte("payload"), wire.QoS0, false)

	for i, ch := range chans {
		select {
		case op := <-ch:
			if op.frame == nil {
				t.Fatalf("session %d received a non-frame delivery", i)
			}
		default:
			t.Fatalf("session %d missed the fan-out delivery", i)
		}
		select {
		case <-ch:
			t.Fatalf("session %d received a duplicate delivery", i)
		default:
		}
	}
	if d := b.Stats().MessagesDropped; d != 0 {
		t.Fatalf("wide fan-out dropped %d deliveries on empty queues", d)
	}
}

// TestStatsSkipsRetainedMu pins the satellite that moved the retained
// count off retainedMu: a Stats snapshot (and thus a $SYS tick or metrics
// scrape) must complete even while a publish holds the retained map lock.
func TestStatsSkipsRetainedMu(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	b.Publish("r/t", []byte("v"), wire.QoS0, true)

	b.retainedMu.Lock()
	defer b.retainedMu.Unlock()
	done := make(chan Stats, 1)
	go func() { done <- b.Stats() }()
	select {
	case st := <-done:
		if st.RetainedMessages != 1 {
			t.Fatalf("RetainedMessages = %d, want 1", st.RetainedMessages)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stats blocked on retainedMu")
	}
}
