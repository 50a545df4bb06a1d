package broker

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// SysTopicPrefix roots the broker's self-statistics topics, mirroring
// Mosquitto's $SYS hierarchy. Wildcard subscriptions never match these
// (spec 4.7.2); clients must subscribe under $SYS explicitly.
const SysTopicPrefix = "$SYS/broker/"

// Version is the broker implementation version advertised on
// $SYS/broker/version.
const Version = "ifot-broker 0.2"

// PublishSysStats starts a goroutine that publishes broker statistics as
// retained messages under $SYS/broker/ at once and then every interval,
// until stop is closed or the broker shuts down. It returns a channel that
// is closed when the publisher exits.
func (b *Broker) PublishSysStats(interval time.Duration, stop <-chan struct{}) <-chan struct{} {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		clk := b.opts.clock
		next := clk.Now()
		var prev map[string]int64
		var prevAt time.Time
		for {
			now := clk.Now()
			counts := b.PublishCounts()
			b.publishSysStatsOnce(counts, prev, now.Sub(prevAt))
			prev, prevAt = counts, now
			// Ticks stay on the interval grid, as a ticker's do; those
			// that fell due while this one published are skipped.
			for !next.After(now) {
				next = next.Add(interval)
			}
			select {
			case <-clk.After(next.Sub(clk.Now())):
			case <-stop:
				return
			}
			b.mu.RLock()
			closed := b.closed
			b.mu.RUnlock()
			if closed {
				return
			}
		}
	}()
	return done
}

// publishSysStatsOnce routes one snapshot of Stats into the topic tree.
// Every topic goes through the broker's unified publish path, so the
// retained store and the live fan-out update atomically: a subscriber
// arriving mid-snapshot sees a retained value at least as fresh as any
// live update it receives, never fresher.
func (b *Broker) publishSysStatsOnce(counts, prev map[string]int64, elapsed time.Duration) {
	s := b.Stats()
	hits, misses := b.RouteCacheStats()
	for topic, value := range map[string]int64{
		SysTopicPrefix + "clients/connected":   int64(s.ConnectedClients),
		SysTopicPrefix + "clients/total":       int64(s.Sessions),
		SysTopicPrefix + "subscriptions":       int64(s.Subscriptions),
		SysTopicPrefix + "retained":            int64(s.RetainedMessages),
		SysTopicPrefix + "messages/received":   s.MessagesReceived,
		SysTopicPrefix + "messages/delivered":  s.MessagesDelivered,
		SysTopicPrefix + "messages/dropped":    s.MessagesDropped,
		SysTopicPrefix + "routes/epoch":        int64(b.RouteEpoch()),
		SysTopicPrefix + "routes/cache/hits":   hits,
		SysTopicPrefix + "routes/cache/misses": misses,
	} {
		b.Publish(topic, []byte(strconv.FormatInt(value, 10)), wire.QoS0, true)
	}
	// Mosquitto-style uptime ("<seconds> seconds") and version strings.
	uptime := fmt.Sprintf("%d seconds", int64(b.Uptime().Seconds()))
	b.Publish(SysTopicPrefix+"uptime", []byte(uptime), wire.QoS0, true)
	b.Publish(SysTopicPrefix+"version", []byte(Version), wire.QoS0, true)

	// Per-topic publish rates (messages/second since the previous
	// snapshot) under $SYS/broker/load/publish/<topic>. Cardinality is
	// bounded by the broker's per-topic accounting; overflow traffic
	// appears under .../other.
	if prev != nil && elapsed > 0 {
		for topic, n := range counts {
			rate := float64(n-prev[topic]) / elapsed.Seconds()
			b.Publish(SysTopicPrefix+"load/publish/"+sysTopicKey(topic),
				[]byte(strconv.FormatFloat(rate, 'f', 2, 64)), wire.QoS0, true)
		}
	}
}

// sysTopicKey maps a publish-accounting key to a $SYS sub-topic.
func sysTopicKey(topic string) string {
	if topic == overflowTopicKey {
		return "other"
	}
	// Topics already use '/' separators and nest naturally; strip any
	// leading separator so the $SYS path stays well-formed.
	return strings.TrimPrefix(topic, "/")
}
