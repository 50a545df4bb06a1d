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

// TestSlowStatsDoesNotStallPublishes pins down the read-mostly locking
// contract: a Stats/PublishCounts scrape holds only read locks, so an
// arbitrarily slow scrape (simulated here by holding the same mu.RLock a
// Stats snapshot holds) cannot stall a concurrent publish. Under the old
// single-Mutex broker this test deadlines out.
func TestSlowStatsDoesNotStallPublishes(t *testing.T) {
	bus := newTestBus(t, Options{})
	sub := bus.connect(t, mqttclient.NewOptions("sub"))
	got := make(chan mqttclient.Message, 1)
	if _, err := sub.Subscribe("stats/t", wire.QoS0, func(m mqttclient.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	pub := bus.connect(t, mqttclient.NewOptions("pub"))

	// Stand-in for a scrape that is mid-snapshot for a long time.
	bus.broker.mu.RLock()
	defer bus.broker.mu.RUnlock()

	if err := pub.Publish("stats/t", []byte("x"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("publish stalled behind a slow Stats reader")
	}

	// The snapshots themselves must also complete while we hold the read
	// lock (they take no write locks).
	done := make(chan struct{})
	go func() {
		_ = bus.broker.Stats()
		_ = bus.broker.PublishCounts()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stats/PublishCounts blocked on a concurrent reader")
	}
}

// TestBrokerStressConcurrentMixedQoS hammers the broker with M concurrent
// publishers × N subscribers across exact and wildcard filters at mixed
// QoS, with a retained stream and subscribers arriving mid-flight. It
// asserts the broker's delivery invariants under the read-mostly locking:
//
//   - zero lost and zero duplicated QoS1 messages, in per-publisher order,
//     for every QoS1 subscriber (exact and wildcard);
//   - retained-replay ordering: a late subscriber's received sequence on
//     the retained topic is strictly increasing — the retained snapshot it
//     is replayed is never fresher than a live message that follows it.
//
// Run with -race; the scheduler noise is the point.
func TestBrokerStressConcurrentMixedQoS(t *testing.T) {
	const (
		publishers  = 4
		perPub      = 100
		retainedMsg = 120
		lateSubs    = 5
	)
	// Queues must absorb the full QoS1 stream: an overflowing QoS1
	// delivery is parked for redelivery on reconnect, which this test
	// (no reconnects) would observe as a loss.
	bus := newTestBus(t, Options{SessionQueueSize: 8192})

	type rx struct {
		mu   sync.Mutex
		msgs []mqttclient.Message
	}
	record := func(r *rx) mqttclient.Handler {
		return func(m mqttclient.Message) {
			r.mu.Lock()
			r.msgs = append(r.msgs, m)
			r.mu.Unlock()
		}
	}

	// Static subscriber pool: exact and wildcard filters at QoS1 (loss
	// and duplication asserted) plus QoS0 subscribers (drops allowed,
	// duplicates impossible by construction — not asserted).
	subs := make([]*rx, 0)
	subFilters := []struct {
		filter string
		qos    wire.QoS
	}{
		{"stress/p0", wire.QoS1},
		{"stress/+", wire.QoS1},
		{"stress/#", wire.QoS1},
		{"stress/p1", wire.QoS1},
		{"stress/+", wire.QoS0},
		{"stress/p2", wire.QoS0},
	}
	for i, sf := range subFilters {
		r := &rx{}
		subs = append(subs, r)
		c := bus.connect(t, mqttclient.NewOptions(fmt.Sprintf("sub-%d", i)))
		if _, err := c.Subscribe(sf.filter, sf.qos, record(r)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// M concurrent QoS1 publishers, each with its own topic and sequence.
	for p := 0; p < publishers; p++ {
		p := p
		c := bus.connect(t, mqttclient.NewOptions(fmt.Sprintf("pub-%d", p)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			topic := fmt.Sprintf("stress/p%d", p)
			for i := 0; i < perPub; i++ {
				if err := c.Publish(topic, []byte(strconv.Itoa(i)), wire.QoS1, false); err != nil {
					t.Errorf("publisher %d: %v", p, err)
					return
				}
			}
		}()
	}

	// Retained stream: one publisher writing increasing sequence numbers
	// retained to one topic, racing the late subscribers below.
	retPub := bus.connect(t, mqttclient.NewOptions("ret-pub"))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < retainedMsg; i++ {
			if err := retPub.Publish("stress/retained", []byte(strconv.Itoa(i)), wire.QoS1, true); err != nil {
				t.Errorf("retained publisher: %v", err)
				return
			}
		}
	}()

	// Late subscribers arrive while the retained stream is in flight;
	// each must observe a strictly increasing sequence starting with its
	// retained replay.
	lateRx := make([]*rx, lateSubs)
	for i := 0; i < lateSubs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 3 * time.Millisecond)
			r := &rx{}
			lateRx[i] = r
			c := bus.connect(t, mqttclient.NewOptions(fmt.Sprintf("late-%d", i)))
			if _, err := c.Subscribe("stress/retained", wire.QoS1, record(r)); err != nil {
				t.Errorf("late subscriber %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	// Drain: every QoS1 publish was acked by the broker; deliveries ride
	// the same ordered per-session queues, so poll until every QoS1
	// subscriber has its full complement (the wildcards also match the
	// retained stream's topic).
	wantAll := publishers * perPub
	count := func(r *rx) int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.msgs)
	}
	targets := []struct {
		r    *rx
		want int
	}{
		{subs[0], perPub},
		{subs[1], wantAll + retainedMsg},
		{subs[2], wantAll + retainedMsg},
		{subs[3], perPub},
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, tgt := range targets {
			if count(tgt.r) < tgt.want {
				done = false
				break
			}
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Per-publisher exact-once, in-order delivery for QoS1 subscribers.
	checkSeq := func(name string, r *rx, topics map[string]int) {
		t.Helper()
		r.mu.Lock()
		defer r.mu.Unlock()
		next := make(map[string]int)
		for _, m := range r.msgs {
			want, tracked := topics[m.Topic]
			if !tracked {
				continue
			}
			seq, err := strconv.Atoi(string(m.Payload))
			if err != nil {
				t.Fatalf("%s: bad payload %q on %s", name, m.Payload, m.Topic)
			}
			if seq != next[m.Topic] {
				t.Fatalf("%s: topic %s got seq %d, want %d (lost or duplicated QoS1 message)",
					name, m.Topic, seq, next[m.Topic])
			}
			next[m.Topic]++
			_ = want
		}
		for topic, want := range topics {
			if next[topic] != want {
				t.Fatalf("%s: topic %s delivered %d/%d QoS1 messages", name, topic, next[topic], want)
			}
		}
	}
	checkSeq("exact-p0", subs[0], map[string]int{"stress/p0": perPub})
	allTopics := map[string]int{}
	for p := 0; p < publishers; p++ {
		allTopics[fmt.Sprintf("stress/p%d", p)] = perPub
	}
	checkSeq("wildcard-plus", subs[1], allTopics)
	checkSeq("wildcard-hash", subs[2], allTopics)
	checkSeq("exact-p1", subs[3], map[string]int{"stress/p1": perPub})

	// Retained-replay ordering for the late arrivals.
	for i, r := range lateRx {
		if r == nil {
			continue
		}
		// The replay follows the SUBACK its Subscribe returned on; give it
		// time to reach the handler. Check a copy: a failed check must not
		// leave r.mu held against the handler the cleanup waits for.
		for wait := time.Now().Add(5 * time.Second); count(r) == 0 && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
		r.mu.Lock()
		msgs := append([]mqttclient.Message(nil), r.msgs...)
		r.mu.Unlock()
		last := -1
		for j, m := range msgs {
			seq, err := strconv.Atoi(string(m.Payload))
			if err != nil {
				t.Fatalf("late-%d: bad payload %q", i, m.Payload)
			}
			if seq <= last {
				t.Fatalf("late-%d: sequence went backwards (%d after %d at index %d): "+
					"live stream ran behind the retained replay", i, seq, last, j)
			}
			last = seq
		}
		if len(msgs) == 0 {
			t.Fatalf("late-%d: no retained replay received", i)
		}
	}
}
