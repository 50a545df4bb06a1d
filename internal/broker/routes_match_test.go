package broker

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// routeOp is one change to the subscription table, made through the
// broker's own mutators.
type routeOp struct {
	kind   routeOpKind
	client string
	filter string
	qos    wire.QoS
}

type routeOpKind int

const (
	opSubscribe   routeOpKind = iota // subscribeLocked, opening the session on first use
	opUnsubscribe                    // unsubscribeLocked
	opDrop                           // dropSessionLocked: a clean session's disconnect
	opTakeover                       // openSessionLocked over a live session: a clean CONNECT
)

func sub(client, filter string, qos wire.QoS) routeOp {
	return routeOp{kind: opSubscribe, client: client, filter: filter, qos: qos}
}

func unsub(client, filter string) routeOp {
	return routeOp{kind: opUnsubscribe, client: client, filter: filter}
}

func drop(client string) routeOp { return routeOp{kind: opDrop, client: client} }

// subscriptionCount is the size of the one subscription table.
func subscriptionCount(b *Broker) (n int) {
	for _, s := range b.sessions {
		n += len(s.subscriptions)
	}
	return n
}

// applyRouteOp applies op as the connection handlers do: a subscribe always
// swaps in new routes, any other change only when its mutator reports one,
// which must be exactly when the subscription table lost an entry.
func applyRouteOp(t *testing.T, b *Broker, op routeOp) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	before := subscriptionCount(b)
	sess := b.sessions[op.client]
	var rerouted bool
	switch op.kind {
	case opSubscribe:
		if sess == nil {
			sess, _ = b.openSessionLocked(op.client, false)
		}
		b.subscribeLocked(sess, op.filter, op.qos)
		b.swapRoutesLocked()
		return
	case opUnsubscribe:
		if sess == nil {
			return
		}
		rerouted = b.unsubscribeLocked(sess, op.filter)
	case opDrop:
		if sess == nil {
			return
		}
		rerouted = b.dropSessionLocked(sess)
	case opTakeover:
		_, rerouted = b.openSessionLocked(op.client, false)
	}
	if changed := subscriptionCount(b) != before; rerouted != changed {
		t.Fatalf("%+v reported rerouted=%v, but the table changed=%v", op, rerouted, changed)
	}
	if rerouted {
		b.swapRoutesLocked()
	}
}

// routesAfter builds a broker, applies ops, and returns its route table.
func routesAfter(t *testing.T, ops ...routeOp) *routeTable {
	t.Helper()
	b := New(Options{})
	t.Cleanup(func() { _ = b.Close() })
	for _, op := range ops {
		applyRouteOp(t, b, op)
	}
	return b.routes.Load()
}

// checkRoutes asserts each probed topic's matches (client → granted QoS)
// and the table's subscription count.
func checkRoutes(t *testing.T, tbl *routeTable, count int, probes map[string]map[string]wire.QoS) {
	t.Helper()
	mb := getMatchBuf()
	defer mb.release()
	for topic, want := range probes {
		if got := idsRoute(tbl.match(topic, mb)); !sameMatch(got, want) {
			t.Errorf("match(%q) = %v, want %v", topic, got, want)
		}
	}
	if tbl.subCount != count {
		t.Errorf("subCount = %d, want %d", tbl.subCount, count)
	}
}

func TestTrieExactMatch(t *testing.T) {
	checkRoutes(t, routesAfter(t, sub("c1", "a/b/c", wire.QoS1)), 1, map[string]map[string]wire.QoS{
		"a/b/c": {"c1": wire.QoS1},
		"a/b/d": nil,
		"a/b":   nil, // a longer filter
	})
}

func TestTrieWildcards(t *testing.T) {
	tbl := routesAfter(t, sub("plus", "sensor/+/temp", wire.QoS0), sub("hash", "sensor/#", wire.QoS1))
	checkRoutes(t, tbl, 2, map[string]map[string]wire.QoS{
		"sensor/room1/temp":     {"plus": wire.QoS0, "hash": wire.QoS1},
		"sensor/room1/humidity": {"hash": wire.QoS1},
		"sensor":                {"hash": wire.QoS1}, // '#' matches the parent level
	})
}

func TestTrieOverlappingFiltersHighestQoSWins(t *testing.T) {
	tbl := routesAfter(t, sub("c", "a/#", wire.QoS0), sub("c", "a/b", wire.QoS1))
	mb := getMatchBuf()
	defer mb.release()
	if subs := tbl.match("a/b", mb); len(subs) != 1 || subs[0].qos != wire.QoS1 {
		t.Fatalf("match(a/b) = %v, want one deduplicated entry at QoS1", idsRoute(subs))
	}
}

func TestTrieUnsubscribe(t *testing.T) {
	// applyRouteOp checks the second unsubscribe reports no change.
	tbl := routesAfter(t, sub("c", "a/b", wire.QoS0), unsub("c", "a/b"), unsub("c", "a/b"))
	checkRoutes(t, tbl, 0, map[string]map[string]wire.QoS{"a/b": nil})
}

func TestTrieRemoveAll(t *testing.T) {
	tbl := routesAfter(t, sub("a", "x/1", wire.QoS0), sub("a", "x/2", wire.QoS0), sub("b", "x/1", wire.QoS0), drop("a"))
	checkRoutes(t, tbl, 1, map[string]map[string]wire.QoS{
		"x/1": {"b": wire.QoS0},
		"x/2": nil,
	})
}

func TestTrieDollarTopicsNotMatchedByWildcards(t *testing.T) {
	wild := []routeOp{sub("c", "#", wire.QoS0), sub("c", "+/x", wire.QoS0)}
	checkRoutes(t, routesAfter(t, wild...), 2, map[string]map[string]wire.QoS{"$SYS/x": nil})
	exact := append(wild, sub("c", "$SYS/x", wire.QoS0))
	checkRoutes(t, routesAfter(t, exact...), 3, map[string]map[string]wire.QoS{"$SYS/x": {"c": wire.QoS0}})
}

func TestTrieResubscribeReplacesQoS(t *testing.T) {
	tbl := routesAfter(t, sub("c", "a", wire.QoS0), sub("c", "a", wire.QoS1))
	checkRoutes(t, tbl, 1, map[string]map[string]wire.QoS{"a": {"c": wire.QoS1}})
}

func TestTrieEmptyLevels(t *testing.T) {
	checkRoutes(t, routesAfter(t, sub("c", "a//b", wire.QoS0)), 1, map[string]map[string]wire.QoS{
		"a//b": {"c": wire.QoS0},
		"a/b":  nil, // not the collapsed topic
	})
}

// randomLevel picks a topic level, occasionally a wildcard (filters only).
func randomLevel(rng *rand.Rand, wildcards bool) string {
	if wildcards {
		switch rng.Intn(8) {
		case 0:
			return "+"
		case 1:
			return "#"
		}
	}
	return string(rune('a' + rng.Intn(3)))
}

func randomTopic(rng *rand.Rand) string {
	n := rng.Intn(4) + 1
	levels := make([]string, n)
	for i := range levels {
		levels[i] = randomLevel(rng, false)
	}
	return strings.Join(levels, "/")
}

func randomFilter(rng *rand.Rand) string {
	n := rng.Intn(4) + 1
	levels := make([]string, n)
	for i := range levels {
		levels[i] = randomLevel(rng, true)
		if levels[i] == "#" {
			return strings.Join(levels[:i+1], "/")
		}
	}
	return strings.Join(levels, "/")
}

// idsRoute flattens a match result to client → granted QoS.
func idsRoute(subs []routeSub) map[string]wire.QoS {
	out := make(map[string]wire.QoS, len(subs))
	for _, s := range subs {
		out[s.session.clientID] = s.qos
	}
	return out
}

func sameMatch(got, want map[string]wire.QoS) bool {
	if len(got) != len(want) {
		return false
	}
	for id, qos := range want {
		if g, ok := got[id]; !ok || g != qos {
			return false
		}
	}
	return true
}

// TestTrieMatchesNaiveOracle drives random subscribes, unsubscribes,
// session drops and clean-session takeovers through the broker's own
// mutators, and checks that the published route table agrees with the
// spec-level wire.MatchTopic oracle applied to a plain list of
// subscriptions, as does a route-cache round trip of its result.
func TestTrieMatchesNaiveOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(Options{})
		defer b.Close()
		oracle := make(map[string]map[string]wire.QoS) // client -> filter -> QoS

		const clients = 4
		for op := 0; op < 60; op++ {
			id := fmt.Sprintf("c%d", rng.Intn(clients))
			switch rng.Intn(5) {
			case 0, 1:
				filter := randomFilter(rng)
				if wire.ValidateTopicFilter(filter) != nil {
					continue
				}
				qos := wire.QoS(rng.Intn(2))
				applyRouteOp(t, b, sub(id, filter, qos))
				if oracle[id] == nil {
					oracle[id] = make(map[string]wire.QoS)
				}
				oracle[id][filter] = qos
			case 2: // a filter the client may or may not hold
				filter := randomFilter(rng)
				applyRouteOp(t, b, unsub(id, filter))
				delete(oracle[id], filter)
			case 3:
				applyRouteOp(t, b, drop(id))
				delete(oracle, id)
			case 4:
				applyRouteOp(t, b, routeOp{kind: opTakeover, client: id})
				delete(oracle, id)
			}
		}

		// The published snapshot and a route-cache store/lookup round
		// trip of its result must both agree with the oracle.
		tbl := b.routes.Load()
		epoch := tbl.epoch
		var rc routeCache
		mb := getMatchBuf()
		defer mb.release()

		for probe := 0; probe < 40; probe++ {
			topic := randomTopic(rng)

			want := make(map[string]wire.QoS)
			for id, subs := range oracle {
				for filter, qos := range subs {
					if wire.MatchTopic(filter, topic) {
						if q, ok := want[id]; !ok || qos > q {
							want[id] = qos
						}
					}
				}
			}

			snapGot := idsRoute(tbl.match(topic, mb))
			if !sameMatch(snapGot, want) {
				t.Logf("seed %d topic %q: snapshot=%v oracle=%v", seed, topic, snapGot, want)
				return false
			}
			rc.store(topic, epoch, tbl.match(topic, mb), nil, true)
			hit := rc.lookup(topic, epoch)
			if hit == nil {
				t.Logf("seed %d topic %q: cache miss right after store", seed, topic)
				return false
			}
			if cacheGot := idsRoute(hit.subs); !sameMatch(cacheGot, want) {
				t.Logf("seed %d topic %q: cache=%v oracle=%v", seed, topic, cacheGot, want)
				return false
			}
			if rc.lookup(topic, epoch+1) != nil {
				t.Logf("seed %d topic %q: cache served a stale epoch", seed, topic)
				return false
			}
		}

		// The snapshot's count, and so Stats, must equal the oracle's.
		total := 0
		for _, subs := range oracle {
			total += len(subs)
		}
		if tbl.subCount != total || b.Stats().Subscriptions != total {
			t.Logf("seed %d: snapshot count %d, stats %d, oracle %d", seed, tbl.subCount, b.Stats().Subscriptions, total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
