package broker

import (
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/clock"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// The $SYS publisher runs on the broker's clock: these tests drive it with
// a virtual one, so a tick happens when the test fires it and never waits
// on the wall clock.

var sysEpoch = time.Date(2016, 6, 27, 0, 0, 0, 0, time.UTC)

// tick fires the publisher's next tick: it waits until the publisher has
// armed its timer, then moves clk to that timer's deadline. The publisher
// is the only user of clk.
func tick(t *testing.T, clk *clock.Virtual) {
	t.Helper()
	guard := time.Now().Add(5 * time.Second)
	for {
		if at, ok := clk.NextDeadline(); ok {
			clk.AdvanceTo(at)
			return
		}
		if time.Now().After(guard) {
			t.Fatal("$SYS publisher never armed its timer")
		}
		runtime.Gosched()
	}
}

// runSysStats starts the $SYS publisher; the cleanup stops it and waits
// for it to exit.
func runSysStats(t *testing.T, b *Broker, interval time.Duration) {
	t.Helper()
	stop := make(chan struct{})
	done := b.PublishSysStats(interval, stop)
	t.Cleanup(func() {
		close(stop)
		<-done
	})
}

// sysSnapshotOnce publishes one $SYS snapshot and returns once it is out:
// the publisher publishes at once and only then looks at stop.
func sysSnapshotOnce(b *Broker) {
	stop := make(chan struct{})
	close(stop)
	<-b.PublishSysStats(time.Hour, stop)
}

// recv returns the next message on got, failing the test after 10 s.
func recv(t *testing.T, got <-chan mqttclient.Message, what string) mqttclient.Message {
	t.Helper()
	select {
	case m := <-got:
		return m
	case <-time.After(10 * time.Second):
		t.Fatalf("no %s", what)
	}
	return mqttclient.Message{}
}

func TestSysStatsPublished(t *testing.T) {
	clk := clock.NewVirtual(sysEpoch)
	bus := newTestBus(t, Options{clock: clk})
	runSysStats(t, bus.broker, 50*time.Millisecond)

	c := bus.connect(t, mqttclient.NewOptions("sys-watcher"))
	got := make(chan mqttclient.Message, 64)
	if _, err := c.Subscribe(SysTopicPrefix+"clients/connected", wire.QoS0, func(m mqttclient.Message) {
		got <- m
	}); err != nil {
		t.Fatal(err)
	}

	// A snapshot taken before the watcher connected counts 0 clients; after
	// each such one the next tick must count it.
	for {
		m := recv(t, got, "live $SYS update")
		n, err := strconv.Atoi(string(m.Payload))
		if err != nil {
			t.Fatalf("non-numeric $SYS payload %q", m.Payload)
		}
		if n >= 1 {
			return // saw ourselves connected
		}
		tick(t, clk)
	}
}

func TestSysStatsNotMatchedByWildcards(t *testing.T) {
	bus := newTestBus(t, Options{clock: clock.NewVirtual(sysEpoch)})
	c := bus.connect(t, mqttclient.NewOptions("wild"))
	got := make(chan mqttclient.Message, 64)
	if _, err := c.Subscribe("#", wire.QoS0, func(m mqttclient.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	sysSnapshotOnce(bus.broker)
	// Deliveries to one subscription keep their order, so a leaked $SYS
	// message would arrive before the probe published after the snapshot.
	if err := c.Publish("probe", []byte("x"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	if m := recv(t, got, "probe"); m.Topic != "probe" {
		t.Fatalf("wildcard received $SYS message on %s", m.Topic)
	}
}

func TestSysStatsRetainedForLateSubscribers(t *testing.T) {
	bus := newTestBus(t, Options{clock: clock.NewVirtual(sysEpoch)})
	sysSnapshotOnce(bus.broker)

	late := bus.connect(t, mqttclient.NewOptions("late"))
	got := make(chan mqttclient.Message, 8)
	if _, err := late.Subscribe(SysTopicPrefix+"subscriptions", wire.QoS0, func(m mqttclient.Message) {
		got <- m
	}); err != nil {
		t.Fatal(err)
	}
	if m := recv(t, got, "retained $SYS snapshot"); !m.Retain {
		t.Fatal("late $SYS snapshot not marked retained")
	}
}

func TestSysUptimeAndVersionRetained(t *testing.T) {
	clk := clock.NewVirtual(sysEpoch)
	bus := newTestBus(t, Options{clock: clk})
	clk.Advance(42 * time.Second)
	sysSnapshotOnce(bus.broker)

	late := bus.connect(t, mqttclient.NewOptions("late-uptime"))
	got := make(chan mqttclient.Message, 8)
	for _, topic := range []string{SysTopicPrefix + "uptime", SysTopicPrefix + "version"} {
		if _, err := late.Subscribe(topic, wire.QoS0, func(m mqttclient.Message) { got <- m }); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]string{}
	for len(seen) < 2 {
		m := recv(t, got, "retained uptime and version")
		if !m.Retain {
			t.Fatalf("%s not retained", m.Topic)
		}
		seen[m.Topic] = string(m.Payload)
	}
	if up := seen[SysTopicPrefix+"uptime"]; up != "42 seconds" {
		t.Fatalf("uptime payload %q, want %q (Mosquitto format, broker clock)", up, "42 seconds")
	}
	if v := seen[SysTopicPrefix+"version"]; v != Version {
		t.Fatalf("version payload = %q, want %q", v, Version)
	}
}

func TestSysPerTopicRates(t *testing.T) {
	clk := clock.NewVirtual(sysEpoch)
	bus := newTestBus(t, Options{clock: clk})
	pub := bus.connect(t, mqttclient.NewOptions("rate-pub"))
	c := bus.connect(t, mqttclient.NewOptions("rate-watch"))
	got := make(chan mqttclient.Message, 64)
	for _, topic := range []string{SysTopicPrefix + "version", SysTopicPrefix + "load/publish/rt/s1", "rt/s1"} {
		if _, err := c.Subscribe(topic, wire.QoS0, func(m mqttclient.Message) { got <- m }); err != nil {
			t.Fatal(err)
		}
	}
	runSysStats(t, bus.broker, time.Second)
	// The first snapshot's version comes after its publish counts were
	// taken; the echo of each publish comes after it was counted.
	if m := recv(t, got, "first snapshot"); m.Topic != SysTopicPrefix+"version" {
		t.Fatalf("got %s before the first snapshot", m.Topic)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := pub.Publish("rt/s1", []byte("x"), wire.QoS0, false); err != nil {
			t.Fatal(err)
		}
		if m := recv(t, got, "echo"); m.Topic != "rt/s1" {
			t.Fatalf("got %s, want the echo of rt/s1", m.Topic)
		}
	}
	tick(t, clk) // one second on
	for {
		m := recv(t, got, "per-topic publish rate")
		if m.Topic != SysTopicPrefix+"load/publish/rt/s1" {
			continue
		}
		if string(m.Payload) != "30.00" {
			t.Fatalf("rate payload %q, want 30.00 (%d publishes in one second)", m.Payload, n)
		}
		return
	}
}

// TestPublishSysStatsShutdownPaths covers both ways the publisher exits:
// the caller's stop channel and broker Close.
func TestPublishSysStatsShutdownPaths(t *testing.T) {
	// exits waits for done, firing any tick the publisher arms meanwhile:
	// it may be waiting for one to notice why it should exit.
	exits := func(t *testing.T, clk *clock.Virtual, done <-chan struct{}, on string) {
		t.Helper()
		guard := time.Now().Add(5 * time.Second)
		for {
			select {
			case <-done:
				return
			default:
			}
			if at, ok := clk.NextDeadline(); ok {
				clk.AdvanceTo(at)
			}
			if time.Now().After(guard) {
				t.Fatalf("publisher did not exit on %s", on)
			}
			runtime.Gosched()
		}
	}
	t.Run("stop channel", func(t *testing.T) {
		clk := clock.NewVirtual(sysEpoch)
		b := New(Options{clock: clk})
		defer b.Close()
		stop := make(chan struct{})
		done := b.PublishSysStats(10*time.Millisecond, stop)
		tick(t, clk)
		tick(t, clk)
		close(stop)
		exits(t, clk, done, "stop")
	})
	t.Run("broker close", func(t *testing.T) {
		clk := clock.NewVirtual(sysEpoch)
		b := New(Options{clock: clk})
		done := b.PublishSysStats(10*time.Millisecond, nil)
		tick(t, clk)
		tick(t, clk)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		exits(t, clk, done, "broker close")
	})
}

// documentedSysTopics reads the $SYS topics docs/observability.md lists,
// as patterns: a <placeholder> level stands for one or more levels.
func documentedSysTopics(t *testing.T) map[string]*regexp.Regexp {
	t.Helper()
	doc, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	start := strings.Index(section, "## `$SYS` MQTT exposition")
	if start < 0 {
		t.Fatal("docs/observability.md has no $SYS section")
	}
	section = section[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	out := map[string]*regexp.Regexp{}
	for _, m := range regexp.MustCompile("`(\\$SYS/broker/[^`]+)`").FindAllStringSubmatch(section, -1) {
		pattern := regexp.MustCompile(`<[a-z]+>`).ReplaceAllString(regexp.QuoteMeta(m[1]), ".+")
		out[m[1]] = regexp.MustCompile("^" + pattern + "$")
	}
	return out
}

// TestSysTopicsMatchDocs collects every topic the publisher sends over
// two snapshots (the second adds the per-topic rates) and diffs the set
// against the documented list in both directions.
func TestSysTopicsMatchDocs(t *testing.T) {
	documented := documentedSysTopics(t)
	clk := clock.NewVirtual(sysEpoch)
	bus := newTestBus(t, Options{clock: clk})
	c := bus.connect(t, mqttclient.NewOptions("sys-docs"))
	got := make(chan mqttclient.Message, 256)
	if _, err := c.Subscribe(SysTopicPrefix+"#", wire.QoS0, func(m mqttclient.Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("probe/x", []byte("x"), wire.QoS0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "probe counted", func() bool { return bus.broker.PublishCounts()["probe/x"] == 1 })
	runSysStats(t, bus.broker, time.Second)

	// A snapshot ends its fixed topics with version; the second one's
	// per-topic rates follow its version.
	seen := map[string]bool{}
	versions := 0
	for {
		m := recv(t, got, "$SYS topic")
		seen[m.Topic] = true
		if m.Topic == SysTopicPrefix+"version" {
			if versions++; versions == 1 {
				tick(t, clk)
			}
		}
		if versions == 2 && strings.HasPrefix(m.Topic, SysTopicPrefix+"load/publish/") {
			break
		}
	}

	matched := map[string]bool{}
	for topic := range seen {
		found := false
		for doc, re := range documented {
			if re.MatchString(topic) {
				matched[doc], found = true, true
			}
		}
		if !found {
			t.Errorf("published %s is not in docs/observability.md", topic)
		}
	}
	for doc := range documented {
		if !matched[doc] {
			t.Errorf("docs/observability.md lists %s, which the broker never published", doc)
		}
	}
}
