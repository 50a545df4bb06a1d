package mqttclient

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// A handler stalled on one subscription must not delay deliveries to other
// subscriptions on the same client: each registration drains its own lane.
// Under the old single-dispatch-goroutine design the fast message below
// would sit behind the blocked slow handler and this test would time out.
func TestSlowHandlerDoesNotStallOtherSubscriptions(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("laner"))
	defer c.Close()

	release := make(chan struct{})
	slowStarted := make(chan struct{}, 1)
	var slowMu sync.Mutex
	var slowGot []string
	if _, err := c.Subscribe("lane/slow", wire.QoS0, func(m Message) {
		select {
		case slowStarted <- struct{}{}:
		default:
		}
		<-release
		slowMu.Lock()
		slowGot = append(slowGot, string(m.Payload))
		slowMu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	fastGot := make(chan string, 8)
	if _, err := c.Subscribe("lane/fast", wire.QoS0, func(m Message) {
		fastGot <- string(m.Payload)
	}); err != nil {
		t.Fatal(err)
	}

	// Fill the slow subscription with work its handler cannot drain yet
	// (well within the lane bound so nothing blocks the dispatcher).
	const slowMsgs = 8
	for i := 0; i < slowMsgs; i++ {
		if err := c.Publish("lane/slow", []byte(fmt.Sprintf("s%d", i)), wire.QoS0, false); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-slowStarted:
	case <-time.After(2 * time.Second):
		t.Fatal("slow handler never started")
	}

	// The fast subscription must still be live while slow is wedged.
	if err := c.Publish("lane/fast", []byte("hello"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-fastGot:
		if got != "hello" {
			t.Fatalf("fast delivery = %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fast subscription stalled behind the slow handler")
	}

	// Release the slow handler: every queued message must arrive, in
	// publish order (per-subscription FIFO).
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for {
		slowMu.Lock()
		n := len(slowGot)
		slowMu.Unlock()
		if n == slowMsgs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow handler drained %d/%d messages", n, slowMsgs)
		}
		time.Sleep(time.Millisecond)
	}
	slowMu.Lock()
	defer slowMu.Unlock()
	for i, got := range slowGot {
		if want := fmt.Sprintf("s%d", i); got != want {
			t.Fatalf("slow order[%d] = %q, want %q", i, got, want)
		}
	}
}

// Removing one of two registrations on the same filter must stop its lane
// while the sibling keeps receiving.
func TestRemoveStopsOnlyOneLane(t *testing.T) {
	fb := newFakeBroker(t)
	c := fb.connect(t, NewOptions("remover"))
	defer c.Close()

	keep := make(chan string, 4)
	_, regA, err := c.SubscribeHandle("lane/shared", wire.QoS0, func(m Message) {
		t.Errorf("removed handler got %q", m.Payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SubscribeHandle("lane/shared", wire.QoS0, func(m Message) {
		keep <- string(m.Payload)
	}); err != nil {
		t.Fatal(err)
	}
	regA.Remove()

	if err := c.Publish("lane/shared", []byte("ping"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-keep:
		if got != "ping" {
			t.Fatalf("sibling got %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sibling lane stalled after Remove")
	}
}
