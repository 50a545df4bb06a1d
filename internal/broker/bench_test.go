package broker

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// startBenchBroker serves a real TCP listener so benchmarks exercise the
// same socket path production traffic takes.
func startBenchBroker(b *testing.B, opts Options) (*Broker, string) {
	b.Helper()
	br := New(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = br.Serve(l) }()
	b.Cleanup(func() { _ = br.Close() })
	return br, l.Addr().String()
}

// benchSubscriber connects a raw wire-level subscriber that drains its
// socket as fast as the kernel hands bytes over, so the broker side (the
// measured path) is never throttled by client-side decoding.
func benchSubscriber(b *testing.B, addr, id, filter string) {
	b.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = conn.Close() })
	if err := wire.WritePacket(conn, &wire.ConnectPacket{ClientID: id, CleanSession: true}); err != nil {
		b.Fatal(err)
	}
	if _, err := wire.ReadPacket(conn, 0); err != nil { // CONNACK
		b.Fatal(err)
	}
	sub := &wire.SubscribePacket{
		PacketID:      1,
		Subscriptions: []wire.Subscription{{TopicFilter: filter, QoS: wire.QoS0}},
	}
	if err := wire.WritePacket(conn, sub); err != nil {
		b.Fatal(err)
	}
	if _, err := wire.ReadPacket(conn, 0); err != nil { // SUBACK
		b.Fatal(err)
	}
	go func() { _, _ = io.Copy(io.Discard, conn) }()
}

// benchWindow bounds how many messages a benchmark publisher keeps
// outstanding per subscriber queue. It is far below sessionQueueSize, so a
// paced benchmark run never drops: msgs/sec is sustained no-drop delivery
// throughput, not enqueue-and-discard speed.
const benchWindow = 1024

// BenchmarkPublishFanout measures the broker's publish hot path: one
// publisher injecting QoS0 messages that fan out to N TCP subscribers.
// msgs/sec counts routed deliveries; drops/op should stay at zero.
func BenchmarkPublishFanout(b *testing.B) {
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			br, addr := startBenchBroker(b, Options{sessionQueueSize: 8192})
			for i := 0; i < subs; i++ {
				benchSubscriber(b, addr, fmt.Sprintf("fan-%d", i), "bench/fanout")
			}
			waitSubs(b, br, subs)
			payload := make([]byte, 128)
			base := br.Stats()

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.Publish("bench/fanout", payload, wire.QoS0, false)
				if (i+1)%benchWindow == 0 {
					drainDeliveries(b, br, base, int64(subs)*int64(i+1))
				}
			}
			st := drainDeliveries(b, br, base, int64(subs)*int64(b.N))
			b.StopTimer()
			b.ReportMetric(float64(int64(subs)*int64(b.N))/b.Elapsed().Seconds(), "msgs/sec")
			b.ReportMetric(float64(st.MessagesDropped-base.MessagesDropped)/float64(b.N), "drops/op")
		})
	}
}

// BenchmarkPublishConcurrent measures routing scalability: GOMAXPROCS
// publishers running concurrently against a wildcard subscriber pool. With
// a single global broker lock the publishers serialize; with read-mostly
// routing they proceed in parallel.
func BenchmarkPublishConcurrent(b *testing.B) {
	const subs = 8
	br, addr := startBenchBroker(b, Options{sessionQueueSize: 8192})
	for i := 0; i < subs; i++ {
		benchSubscriber(b, addr, fmt.Sprintf("par-%d", i), "bench/par/#")
	}
	waitSubs(b, br, subs)
	payload := make([]byte, 128)
	base := br.Stats()

	b.ReportAllocs()
	b.ResetTimer()
	var published atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			br.Publish("bench/par/t", payload, wire.QoS0, false)
			if p := published.Add(1); p%256 == 0 {
				// Pace all publishers against the slowest queue so the
				// benchmark never overruns sessionQueueSize.
				for {
					st := br.Stats()
					if p*subs-(st.MessagesDelivered-base.MessagesDelivered) <= subs*benchWindow {
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
	})
	n := int64(b.N)
	st := drainDeliveries(b, br, base, subs*n)
	b.StopTimer()
	b.ReportMetric(float64(subs*n)/b.Elapsed().Seconds(), "msgs/sec")
	b.ReportMetric(float64(st.MessagesDropped-base.MessagesDropped)/float64(b.N), "drops/op")
}

// BenchmarkPublishChurn measures publish latency under subscription churn:
// a background client subscribes and unsubscribes continuously, forcing
// route-snapshot swaps, while the publisher drives the hot topic. Besides
// msgs/sec it reports the worst single-publish latency observed — the
// acceptance bound is that no publish stalls longer than one snapshot swap
// (the gate parks a publisher only for the pointer store plus retained
// replay, never for the snapshot rebuild).
func BenchmarkPublishChurn(b *testing.B) {
	const subs = 4
	br, addr := startBenchBroker(b, Options{sessionQueueSize: 8192})
	for i := 0; i < subs; i++ {
		benchSubscriber(b, addr, fmt.Sprintf("churn-%d", i), "bench/churn/#")
	}
	waitSubs(b, br, subs)

	// Churner: a raw wire-level client flipping a filter as fast as the
	// broker acks, swapping the route snapshot on every flip.
	churnConn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = churnConn.Close() })
	if err := wire.WritePacket(churnConn, &wire.ConnectPacket{ClientID: "churner", CleanSession: true}); err != nil {
		b.Fatal(err)
	}
	if _, err := wire.ReadPacket(churnConn, 0); err != nil { // CONNACK
		b.Fatal(err)
	}
	stopChurn := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for id := uint16(1); ; id += 2 {
			select {
			case <-stopChurn:
				return
			default:
			}
			sub := &wire.SubscribePacket{
				PacketID:      id,
				Subscriptions: []wire.Subscription{{TopicFilter: "bench/noise/+", QoS: wire.QoS0}},
			}
			if err := wire.WritePacket(churnConn, sub); err != nil {
				return
			}
			if _, err := wire.ReadPacket(churnConn, 0); err != nil { // SUBACK
				return
			}
			unsub := &wire.UnsubscribePacket{PacketID: id + 1, TopicFilters: []string{"bench/noise/+"}}
			if err := wire.WritePacket(churnConn, unsub); err != nil {
				return
			}
			if _, err := wire.ReadPacket(churnConn, 0); err != nil { // UNSUBACK
				return
			}
		}
	}()

	payload := make([]byte, 128)
	base := br.Stats()
	startEpoch := br.RouteEpoch()

	var maxLatency time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		br.Publish("bench/churn/t", payload, wire.QoS0, false)
		if d := time.Since(t0); d > maxLatency {
			maxLatency = d
		}
		if (i+1)%benchWindow == 0 {
			drainDeliveries(b, br, base, int64(subs)*int64(i+1))
		}
	}
	st := drainDeliveries(b, br, base, int64(subs)*int64(b.N))
	b.StopTimer()
	close(stopChurn)
	_ = churnConn.Close()
	<-churnDone
	swaps := br.RouteEpoch() - startEpoch
	b.ReportMetric(float64(int64(subs)*int64(b.N))/b.Elapsed().Seconds(), "msgs/sec")
	b.ReportMetric(float64(st.MessagesDropped-base.MessagesDropped)/float64(b.N), "drops/op")
	b.ReportMetric(float64(maxLatency.Nanoseconds()), "max-publish-ns")
	b.ReportMetric(float64(swaps), "swaps")
}

func waitSubs(b *testing.B, br *Broker, want int) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for br.Stats().Subscriptions < want {
		if time.Now().After(deadline) {
			b.Fatalf("only %d/%d subscriptions registered", br.Stats().Subscriptions, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainDeliveries waits until every routed message has either hit a
// subscriber socket or been counted as dropped, so the timed region covers
// the full broker-side delivery cost.
func drainDeliveries(b *testing.B, br *Broker, base Stats, want int64) Stats {
	b.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := br.Stats()
		done := (st.MessagesDelivered - base.MessagesDelivered) + (st.MessagesDropped - base.MessagesDropped)
		if done >= want {
			return st
		}
		if time.Now().After(deadline) {
			b.Fatalf("drained %d/%d deliveries", done, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkPublishFanoutDurable is BenchmarkPublishFanout with a WAL-backed
// broker: same QoS0 fan-out hot path, persistence enabled via a real
// FileStore in a temp dir. QoS0 fan-out journals nothing, so this measures
// the overhead of the persistence nil-checks plus any incidental retained
// or session traffic — the acceptance bound is ≤10% vs the in-memory
// BenchmarkPublishFanout baseline.
func BenchmarkPublishFanoutDurable(b *testing.B) {
	for _, subs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = st.Close() })
			br, addr := startBenchBroker(b, Options{sessionQueueSize: 8192, Store: st})
			for i := 0; i < subs; i++ {
				benchSubscriber(b, addr, fmt.Sprintf("fan-%d", i), "bench/fanout")
			}
			waitSubs(b, br, subs)
			payload := make([]byte, 128)
			base := br.Stats()

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				br.Publish("bench/fanout", payload, wire.QoS0, false)
				if (i+1)%benchWindow == 0 {
					drainDeliveries(b, br, base, int64(subs)*int64(i+1))
				}
			}
			stats := drainDeliveries(b, br, base, int64(subs)*int64(b.N))
			b.StopTimer()
			b.ReportMetric(float64(int64(subs)*int64(b.N))/b.Elapsed().Seconds(), "msgs/sec")
			b.ReportMetric(float64(stats.MessagesDropped-base.MessagesDropped)/float64(b.N), "drops/op")
		})
	}
}
