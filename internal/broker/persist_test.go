package broker

import (
	"fmt"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/netsim"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// openBus starts a broker backed by st with an in-memory listener. Unlike
// newTestBus it does not register cleanup closes — restart tests manage
// broker lifecycle explicitly.
func openBus(t *testing.T, st store.Store) *testBus {
	t.Helper()
	b, err := Open(Options{Store: st})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	l := netsim.NewPipeListener()
	go func() { _ = b.Serve(l) }()
	return &testBus{broker: b, listener: l}
}

func persistentOpts(clientID string) mqttclient.Options {
	o := mqttclient.NewOptions(clientID)
	o.CleanSession = false
	return o
}

func TestPersistRetainedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bus := openBus(t, st)
	pub := bus.connect(t, mqttclient.NewOptions("pub"))
	for i := 0; i < 5; i++ {
		if err := pub.Publish(fmt.Sprintf("cfg/%d", i), []byte(fmt.Sprintf("v%d", i)), wire.QoS1, true); err != nil {
			t.Fatal(err)
		}
	}
	// Retained delete must also survive.
	if err := pub.Publish("cfg/1", nil, wire.QoS1, true); err != nil {
		t.Fatal(err)
	}
	_ = pub.Close()
	_ = bus.broker.Close()
	_ = bus.listener.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bus2 := openBus(t, st2)
	defer func() { _ = bus2.broker.Close(); _ = bus2.listener.Close(); _ = st2.Close() }()

	if got := bus2.broker.Stats().RetainedMessages; got != 4 {
		t.Fatalf("retained after restart = %d, want 4", got)
	}
	sub := bus2.connect(t, mqttclient.NewOptions("sub"))
	msgs := make(chan mqttclient.Message, 8)
	if _, err := sub.Subscribe("cfg/#", wire.QoS0, func(m mqttclient.Message) { msgs <- m }); err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for len(seen) < 4 {
		select {
		case m := <-msgs:
			if !m.Retain {
				t.Fatalf("replayed message %q not marked retained", m.Topic)
			}
			seen[m.Topic] = string(m.Payload)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out; got %v", seen)
		}
	}
	if _, ok := seen["cfg/1"]; ok {
		t.Fatal("deleted retained message came back")
	}
	for _, i := range []int{0, 2, 3, 4} {
		if seen[fmt.Sprintf("cfg/%d", i)] != fmt.Sprintf("v%d", i) {
			t.Fatalf("retained payloads after restart: %v", seen)
		}
	}
}

// The second case parks more than SessionQueueSize messages: the recovered
// backlog must come back whole on reconnect, not one queue-full at a time.
// The third restarts twice: the session the first recovery rebuilt gains a
// subscription and a queued message, which must journal like a live
// session's and survive the second restart.
func TestPersistSubscriptionsAndQueuedQoS1AcrossRestart(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		restarts int
	}{{"3", 3, 1}, {"600", 600, 1}, {"3-restarted-twice", 3, 2}} {
		t.Run(tc.name, func(t *testing.T) { testPersistQueuedAcrossRestart(t, tc.n, tc.restarts) })
	}
}

func testPersistQueuedAcrossRestart(t *testing.T, n, restarts int) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bus := openBus(t, st)

	// Persistent subscriber registers, then goes offline.
	sub := bus.connect(t, persistentOpts("durable-sub"))
	if _, err := sub.Subscribe("jobs/#", wire.QoS1, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	_ = sub.Close()
	waitFor(t, "subscriber detach", func() bool { return bus.broker.Stats().ConnectedClients == 0 })

	// Messages published while it is offline must be queued durably.
	pub := bus.connect(t, mqttclient.NewOptions("pub"))
	for i := 0; i < n; i++ {
		if err := pub.Publish(fmt.Sprintf("jobs/%d", i), []byte(fmt.Sprintf("job%d", i)), wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
	}
	_ = pub.Close()
	_ = bus.broker.Close()
	_ = bus.listener.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the session, its subscription, and its queue must be back.
	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bus2 := openBus(t, st2)
	defer func() { _ = bus2.broker.Close(); _ = bus2.listener.Close(); _ = st2.Close() }()

	stats := bus2.broker.Stats()
	if stats.Sessions != 1 || stats.Subscriptions != 1 {
		t.Fatalf("after restart: %+v, want 1 session + 1 subscription", stats)
	}

	msgs := make(chan mqttclient.Message, 8)
	opts := persistentOpts("durable-sub")
	opts.DefaultHandler = func(m mqttclient.Message) { msgs <- m }
	c := bus2.connect(t, opts)
	defer c.Close()
	got := map[string]string{}
	for len(got) < n {
		select {
		case m := <-msgs:
			if m.QoS != wire.QoS1 {
				t.Fatalf("queued message %q delivered at QoS %v", m.Topic, m.QoS)
			}
			got[m.Topic] = string(m.Payload)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out; got %d of %d", len(got), n)
		}
	}
	for i := 0; i < n; i++ {
		if got[fmt.Sprintf("jobs/%d", i)] != fmt.Sprintf("job%d", i) {
			t.Fatalf("queued payloads after restart: %v", got)
		}
	}
	if restarts == 1 {
		return
	}

	// The recovered session subscribes again, goes offline and has one
	// more message queued; then the broker restarts a second time.
	if _, err := c.Subscribe("extra/#", wire.QoS1, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	waitFor(t, "subscriber detach", func() bool { return bus2.broker.Stats().ConnectedClients == 0 })
	pub2 := bus2.connect(t, mqttclient.NewOptions("pub"))
	if err := pub2.Publish("extra/1", []byte("late"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	_ = pub2.Close()
	_ = bus2.broker.Close()
	_ = bus2.listener.Close()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bus3 := openBus(t, st3)
	defer func() { _ = bus3.broker.Close(); _ = bus3.listener.Close(); _ = st3.Close() }()
	if stats := bus3.broker.Stats(); stats.Sessions != 1 || stats.Subscriptions != 2 {
		t.Fatalf("after the second restart: %+v, want 1 session + 2 subscriptions", stats)
	}
	msgs3 := make(chan mqttclient.Message, 8)
	opts3 := persistentOpts("durable-sub")
	opts3.DefaultHandler = func(m mqttclient.Message) { msgs3 <- m }
	c3 := bus3.connect(t, opts3)
	defer c3.Close()
	for {
		// A jobs message whose ack the first reconnect did not get to
		// journal comes again; the extra one must come too.
		select {
		case m := <-msgs3:
			if m.Topic == "extra/1" {
				if string(m.Payload) != "late" || m.QoS != wire.QoS1 {
					t.Fatalf("extra/1 redelivered as %q at QoS %v", m.Payload, m.QoS)
				}
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("message queued on the recovered session lost by the second restart")
		}
	}
}

func TestPersistAckedMessagesNotRedelivered(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bus := openBus(t, st)

	msgs := make(chan mqttclient.Message, 8)
	opts := persistentOpts("acker")
	opts.DefaultHandler = func(m mqttclient.Message) { msgs <- m }
	sub := bus.connect(t, opts)
	if _, err := sub.Subscribe("a/#", wire.QoS1, func(m mqttclient.Message) { msgs <- m }); err != nil {
		t.Fatal(err)
	}
	pub := bus.connect(t, mqttclient.NewOptions("pub"))
	if err := pub.Publish("a/1", []byte("acked"), wire.QoS1, false); err != nil {
		t.Fatal(err)
	}
	select {
	case <-msgs:
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}
	// The client PUBACKs asynchronously after the handler; wait until the
	// broker has journaled the ack (inflight window empty).
	waitFor(t, "ack journaled", func() bool {
		bus.broker.mu.RLock()
		sess := bus.broker.sessions["acker"]
		bus.broker.mu.RUnlock()
		sess.mu.Lock()
		defer sess.mu.Unlock()
		return sent(sess) == 0
	})
	_ = sub.Close()
	_ = pub.Close()
	_ = bus.broker.Close()
	_ = bus.listener.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bus2 := openBus(t, st2)
	defer func() { _ = bus2.broker.Close(); _ = bus2.listener.Close(); _ = st2.Close() }()

	redelivered := make(chan mqttclient.Message, 8)
	opts2 := persistentOpts("acker")
	opts2.DefaultHandler = func(m mqttclient.Message) { redelivered <- m }
	c := bus2.connect(t, opts2)
	defer c.Close()
	select {
	case m := <-redelivered:
		t.Fatalf("acked message redelivered after restart: %q %q", m.Topic, m.Payload)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestPersistCleanSessionReconnectClearsState(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bus := openBus(t, st)

	sub := bus.connect(t, persistentOpts("flip"))
	if _, err := sub.Subscribe("x/#", wire.QoS1, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	_ = sub.Close()
	waitFor(t, "detach", func() bool { return bus.broker.Stats().ConnectedClients == 0 })

	// Reconnect clean: durable state for "flip" must be discarded.
	clean := bus.connect(t, mqttclient.NewOptions("flip"))
	_ = clean.Close()
	waitFor(t, "clean detach", func() bool { return bus.broker.Stats().ConnectedClients == 0 })
	_ = bus.broker.Close()
	_ = bus.listener.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Open(Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close(); _ = st2.Close() }()
	stats := b2.Stats()
	if stats.Sessions != 0 || stats.Subscriptions != 0 {
		t.Fatalf("clean-session reconnect leaked durable state: %+v", stats)
	}
}

// TestPersistCrashRecovery kills the store the hard way — no flush, no
// sync, mid-traffic — and verifies the rebuilt broker serves a consistent
// prefix of the journaled state.
func TestPersistCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true, SyncDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	bus := openBus(t, st)

	sub := bus.connect(t, persistentOpts("crash-sub"))
	if _, err := sub.Subscribe("s/#", wire.QoS1, func(mqttclient.Message) {}); err != nil {
		t.Fatal(err)
	}
	_ = sub.Close()
	waitFor(t, "detach", func() bool { return bus.broker.Stats().ConnectedClients == 0 })

	pub := bus.connect(t, mqttclient.NewOptions("pub"))
	const total = 50
	for i := 0; i < total; i++ {
		if err := pub.Publish("s/evt", []byte(fmt.Sprintf("m%03d", i)), wire.QoS1, false); err != nil {
			t.Fatal(err)
		}
		if err := pub.Publish("s/state", []byte(fmt.Sprintf("r%03d", i)), wire.QoS1, true); err != nil {
			t.Fatal(err)
		}
	}
	// Give the group-commit window a moment so a non-empty prefix is on
	// disk, then pull the plug without closing the broker.
	time.Sleep(20 * time.Millisecond)
	st.Crash()
	_ = bus.broker.Close()
	_ = bus.listener.Close()

	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	b2, err := Open(Options{Store: st2})
	if err != nil {
		t.Fatalf("broker recovery after crash: %v", err)
	}
	defer func() { _ = b2.Close(); _ = st2.Close() }()

	stats := b2.Stats()
	if stats.Sessions != 1 || stats.Subscriptions != 1 {
		t.Fatalf("session lost in crash: %+v", stats)
	}
	// The publisher alternated m/r publishes, both matching s/#, so the
	// recovered queue must be a strict prefix of the interleaved sequence
	// m000, r000, m001, r001, … — a crash may lose the tail but never
	// reorder or corrupt.
	var expect []string
	for i := 0; i < total; i++ {
		expect = append(expect, fmt.Sprintf("m%03d", i), fmt.Sprintf("r%03d", i))
	}
	b2.mu.RLock()
	sess := b2.sessions["crash-sub"]
	b2.mu.RUnlock()
	sess.mu.Lock()
	for i, e := range sess.window {
		if string(e.pkt.Payload) != expect[i] {
			sess.mu.Unlock()
			t.Fatalf("queued[%d] = %q, want %q (prefix property violated)", i, e.pkt.Payload, expect[i])
		}
	}
	n := parked(sess)
	sess.mu.Unlock()
	if n == 0 {
		t.Fatal("crash lost everything despite group-commit window")
	}
	t.Logf("recovered %d/%d queued messages after crash", n, 2*total)
}

func TestPersistSnapshotCompactionKeepsState(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	// A compaction midway: the restart restores the snapshot and replays
	// the tail written after it.
	for i := 0; i < 200; i++ {
		b.Publish(fmt.Sprintf("r/%d", i%10), []byte(fmt.Sprintf("payload-%d", i)), wire.QoS1, true)
		if i == 150 {
			if err := st.SaveSnapshot(b.captureState); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Open(Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close(); _ = st2.Close() }()
	if got := b2.Stats().RetainedMessages; got != 10 {
		t.Fatalf("retained after compacted restart = %d, want 10", got)
	}
	b2.retainedMu.Lock()
	defer b2.retainedMu.Unlock()
	for i := 0; i < 10; i++ {
		topic := fmt.Sprintf("r/%d", i)
		want := fmt.Sprintf("payload-%d", 190+i)
		if got := string(b2.retained[topic].payload); got != want {
			t.Fatalf("retained[%s] = %q, want %q", topic, got, want)
		}
	}
}

func TestPersistMemStoreSameContract(t *testing.T) {
	st := store.NewMemStore()
	b, err := Open(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	b.Publish("m/1", []byte("one"), wire.QoS1, true)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := Open(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if got := b2.Stats().RetainedMessages; got != 1 {
		t.Fatalf("MemStore-backed restart lost retained state: %d", got)
	}
}

// TestPersistGoldenRecord: retained and session records are journaled as
// the bytes earlier releases wrote (the records TestBrokerRecoversParentJournal
// reads back).
func TestPersistGoldenRecord(t *testing.T) {
	st := store.NewMemStore()
	b, err := Open(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Publish("cfg/a", []byte("a1"), wire.QoS1, true)
	b.mu.Lock()
	sess, _ := b.openSessionLocked("dev", true)
	b.subscribeLocked(sess, "jobs/#", wire.QoS1)
	b.mu.Unlock()
	sess.mu.Lock()
	sess.queueLocked(b.persist.nextMsgID(), &wire.PublishPacket{Topic: "jobs/1", Payload: []byte("one"), QoS: wire.QoS1})
	sess.removeLocked(0)
	sess.mu.Unlock()

	var got []string
	if err := st.Replay(func(rec []byte) error { got = append(got, string(rec)); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"op":"ret","topic":"cfg/a","payload":"YTE=","qos":1}`,
		`{"op":"sess","client":"dev"}`,
		`{"op":"sub","client":"dev","filter":"jobs/#","qos":1}`,
		`{"op":"q","client":"dev","topic":"jobs/1","payload":"b25l","qos":1,"id":1}`,
		`{"op":"ack","client":"dev","id":1}`,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("journaled\n%q\nwant\n%q", got, want)
	}
}
