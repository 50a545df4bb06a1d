package broker

import (
	"strings"
	"sync"
	"sync/atomic"

	"github.com/ifot-middleware/ifot/internal/wire"
)

// Epoch-published routing. The broker's publish path routes against an
// immutable routeTable snapshot published through an atomic pointer. The
// one subscription table is the sessions' own filter maps
// (session.subscriptions, guarded by Broker.mu): subscribe/unsubscribe/
// session churn mutate them under Broker.mu, derive a fresh snapshot from
// them with buildRoutes, and swap it in under the write lock of
// Broker.gate, which every publish read-locks. A publish read section
// therefore always observes the snapshot that is current for its entire
// section (the write lock waits out in-flight sections before a swap
// completes), which is what makes the epoch-keyed route cache below
// coherent without any locking on lookups.

// routeSub is one matched delivery target: the session and the granted
// QoS of the filter that matched.
type routeSub struct {
	session *session
	qos     wire.QoS
}

// routeTable is one immutable routing snapshot.
type routeTable struct {
	epoch    uint64
	root     *routeNode
	subCount int
}

// routeNode is one level of the immutable route trie: children holds
// only literal levels; the `+` and `#` wildcard children get their own
// fields so matching skips two map probes per level.
type routeNode struct {
	children map[string]*routeNode
	plus     *routeNode
	hash     *routeNode
	subs     []routeSub
}

// buildRoutes derives a snapshot stamped with epoch from every session's
// filters. Callers hold Broker.mu, which guards the filter maps. A session
// holds each filter once, so sessions within one node's subs are unique.
func buildRoutes(sessions map[string]*session, epoch uint64) *routeTable {
	tbl := &routeTable{epoch: epoch, root: &routeNode{}}
	for _, s := range sessions {
		for filter, qos := range s.subscriptions {
			n := tbl.root
			for rest, more := filter, true; more; {
				var level string
				level, rest, more = strings.Cut(rest, "/")
				n = n.child(level)
			}
			n.subs = append(n.subs, routeSub{session: s, qos: qos})
			tbl.subCount++
		}
	}
	return tbl
}

// child returns n's child for one filter level, adding it if absent.
func (n *routeNode) child(level string) *routeNode {
	switch level {
	case "+":
		if n.plus == nil {
			n.plus = &routeNode{}
		}
		return n.plus
	case "#":
		if n.hash == nil {
			n.hash = &routeNode{}
		}
		return n.hash
	}
	c := n.children[level]
	if c == nil {
		if n.children == nil {
			n.children = make(map[string]*routeNode)
		}
		c = &routeNode{}
		n.children[level] = c
	}
	return c
}

// matchBuf is pooled matching scratch: matched terminal nodes, a merge
// buffer, and a dedup index used only when several filters match.
type matchBuf struct {
	nodes []*routeNode
	subs  []routeSub
	seen  map[*session]int
}

var matchBufPool = sync.Pool{New: func() any { return &matchBuf{} }}

func getMatchBuf() *matchBuf { return matchBufPool.Get().(*matchBuf) }

func (mb *matchBuf) release() { matchBufPool.Put(mb) }

// match returns the subscribers whose filters match topic; one session
// matching via several filters gets its highest granted QoS (spec 3.3.5).
// The returned slice is valid until mb is released or reused: the common
// single-filter case aliases the node's immutable subs slice and the
// multi-filter case lands in mb's merge buffer — either way, zero
// allocations and no per-publish map or strings.Split.
func (t *routeTable) match(topic string, mb *matchBuf) []routeSub {
	mb.nodes = mb.nodes[:0]
	// Per spec 4.7.2, wildcard filters must not match $-prefixed topics.
	t.root.collect(topic, 0, strings.HasPrefix(topic, "$"), mb)
	switch len(mb.nodes) {
	case 0:
		return nil
	case 1:
		return mb.nodes[0].subs
	}
	return mb.merge()
}

// collect walks the topic level by level (pos indexes the current level's
// first byte; len(topic)+1 marks all levels consumed) gathering terminal
// nodes whose filters match.
func (n *routeNode) collect(topic string, pos int, skipWildcard bool, mb *matchBuf) {
	if pos > len(topic) {
		if len(n.subs) > 0 {
			mb.nodes = append(mb.nodes, n)
		}
		// "a/#" also matches "a": a child '#' at this point terminates.
		if n.hash != nil && !skipWildcard && len(n.hash.subs) > 0 {
			mb.nodes = append(mb.nodes, n.hash)
		}
		return
	}
	var level string
	var next int
	if end := strings.IndexByte(topic[pos:], '/'); end < 0 {
		level, next = topic[pos:], len(topic)+1
	} else {
		level, next = topic[pos:pos+end], pos+end+1
	}
	if child, ok := n.children[level]; ok {
		child.collect(topic, next, false, mb)
	}
	if !skipWildcard {
		if n.plus != nil {
			n.plus.collect(topic, next, false, mb)
		}
		if n.hash != nil && len(n.hash.subs) > 0 {
			mb.nodes = append(mb.nodes, n.hash)
		}
	}
}

// merge flattens multiple matched nodes, deduplicating sessions on
// highest QoS. Within one node sessions are unique by construction, so
// the map is needed only across nodes.
func (mb *matchBuf) merge() []routeSub {
	mb.subs = mb.subs[:0]
	if mb.seen == nil {
		mb.seen = make(map[*session]int, 16)
	} else {
		clear(mb.seen)
	}
	for _, n := range mb.nodes {
		for _, s := range n.subs {
			if j, ok := mb.seen[s.session]; ok {
				if s.qos > mb.subs[j].qos {
					mb.subs[j].qos = s.qos
				}
				continue
			}
			mb.seen[s.session] = len(mb.subs)
			mb.subs = append(mb.subs, s)
		}
	}
	return mb.subs
}

// --- route cache ---

// routeCache memoizes topic → matched subscriber set per snapshot epoch,
// exploiting that IFoT sensor flows republish into a small stable topic
// set. Lookups are lock-free: each shard publishes an immutable
// map[topic]*rcCell through an atomic pointer, and each cell holds an
// atomic pointer to its current value. Correctness leans on the epoch
// gate: all concurrent publish sections run against the same snapshot
// epoch (a swap fences them out first), so racing refreshes of one cell
// always store equivalent values.
type routeCache struct {
	shards [routeCacheShards]rcShard
}

const (
	routeCacheShards   = 16  // power of two; indexed by topic hash
	routeCacheShardMax = 512 // bounded: beyond this, new topics stay uncached
)

type rcShard struct {
	m  atomic.Pointer[map[string]*rcCell]
	mu sync.Mutex // serializes map-copy inserts; lookups never touch it
}

// rcCell is one topic's slot; stable across epochs so refreshes after a
// snapshot swap are a single pointer store, not a map copy.
type rcCell struct {
	v atomic.Pointer[rcVal]
}

// rcVal is one immutable cached route: the merged subscriber set for the
// topic at a given epoch, plus the topic's publish-accounting counter
// (nil for $-topics) so cache hits skip the pubMu lookup too, plus the
// topic-name validity verdict so cache hits skip re-validating the topic
// byte-by-byte before frame encoding.
type rcVal struct {
	epoch uint64
	subs  []routeSub
	tc    *topicCount
	valid bool
}

// lookup returns the cached route for topic at epoch, or nil on miss
// (absent or stale). Zero allocations, zero locks.
func (c *routeCache) lookup(topic string, epoch uint64) *rcVal {
	sh := &c.shards[rcHash(topic)&(routeCacheShards-1)]
	mp := sh.m.Load()
	if mp == nil {
		return nil
	}
	cell := (*mp)[topic]
	if cell == nil {
		return nil
	}
	v := cell.v.Load()
	if v == nil || v.epoch != epoch {
		return nil
	}
	return v
}

// store caches subs (copied) for topic at epoch and returns the owned
// copy. Refreshing an existing topic is a lock-free pointer store; a new
// topic takes the shard mutex and republishes a copied map. A full shard
// first evicts entries not republished since the last epoch swap; if
// every entry is live, the new topic simply stays uncached — matching is
// cheap, and the bound is what keeps an adversarial topic stream from
// growing broker memory.
func (c *routeCache) store(topic string, epoch uint64, subs []routeSub, tc *topicCount, valid bool) []routeSub {
	owned := make([]routeSub, len(subs))
	copy(owned, subs)
	val := &rcVal{epoch: epoch, subs: owned, tc: tc, valid: valid}
	sh := &c.shards[rcHash(topic)&(routeCacheShards-1)]
	if mp := sh.m.Load(); mp != nil {
		if cell := (*mp)[topic]; cell != nil {
			cell.v.Store(val)
			return owned
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	mp := sh.m.Load()
	var nm map[string]*rcCell
	if mp == nil {
		nm = make(map[string]*rcCell, 8)
	} else {
		if cell := (*mp)[topic]; cell != nil { // raced with another insert
			cell.v.Store(val)
			return owned
		}
		if len(*mp) >= routeCacheShardMax {
			nm = make(map[string]*rcCell, routeCacheShardMax/2)
			for k, cl := range *mp {
				if v := cl.v.Load(); v != nil && v.epoch == epoch {
					nm[k] = cl
				}
			}
			if len(nm) >= routeCacheShardMax {
				return owned // shard genuinely hot and full
			}
		} else {
			nm = make(map[string]*rcCell, len(*mp)+1)
			for k, cl := range *mp {
				nm[k] = cl
			}
		}
	}
	cell := &rcCell{}
	cell.v.Store(val)
	nm[topic] = cell
	sh.m.Store(&nm)
	return owned
}

// rcHash is FNV-1a over the topic bytes (allocation-free).
func rcHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
