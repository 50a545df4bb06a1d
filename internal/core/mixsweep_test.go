package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
)

// The sweep's MIX settings: a short keyframe cadence keeps the quiesce
// phase short, and a staleness bound of a few dozen steps gets quiet
// publishers evicted now and then.
const (
	mixSimKeyframeEvery = 4
	mixSimStaleAfter    = 40 * time.Millisecond
	mixSimSteps         = 200
)

// mixSimFeatures are the feature names the sweep's learners train on.
var mixSimFeatures = []string{"s0@mean", "s1@mean", "s2@mean", "t@last"}

// mixSimMsg is one published MIX payload and the module that published it.
type mixSimMsg struct {
	from    string
	payload []byte
}

// mixSimQueue is one subscriber's FIFO for one publishing module: MQTT
// orders a topic's messages to a subscriber, not messages across topics.
type mixSimQueue struct {
	from string
	msgs [][]byte
}

// mixSimMember is one MIX participant: a trainer shard (pub set) or the
// modelFrom predictor (pub nil).
type mixSimMember struct {
	module string
	model  *ml.PassiveAggressive
	rx     *mixReceiver
	pub    *mixPublisher
	inbox  []mixSimQueue
	dec    ml.MixDelta
}

func (m *mixSimMember) enqueue(msg mixSimMsg) {
	for i := range m.inbox {
		if m.inbox[i].from == msg.from {
			m.inbox[i].msgs = append(m.inbox[i].msgs, msg.payload)
			return
		}
	}
	m.inbox = append(m.inbox, mixSimQueue{from: msg.from, msgs: [][]byte{msg.payload}})
}

func (m *mixSimMember) pending() bool {
	for _, q := range m.inbox {
		if len(q.msgs) > 0 {
			return true
		}
	}
	return false
}

// mixSchedule is one seeded run of a broker-free MIX cluster: shard
// trainers and a late modelFrom predictor exchange real encoded payloads
// through per-subscriber FIFOs, and the latest keyframe per publishing
// module is retained, as a broker would.
type mixSchedule struct {
	t        *testing.T
	rng      *rand.Rand
	syms     *feature.Symbols
	shards   int
	lossy    bool
	now      time.Time
	modules  int
	trainers []*mixSimMember // by shard
	pred     *mixSimMember   // nil until it joins
	retained []mixSimMsg     // latest keyframe per module
	history  []mixSimMsg     // every keyframe published, for stale replays
}

// startTrainer starts shard's trainer on module, restored from the model
// of the instance it replaces (nil: fresh), and subscribes it when the
// task is sharded.
func (s *mixSchedule) startTrainer(shard int, module string, from *ml.PassiveAggressive) {
	model := ml.NewPassiveAggressive(1)
	if from != nil {
		blob, err := from.CheckpointState()
		if err != nil {
			s.t.Fatal(err)
		}
		if err := model.RestoreState(blob); err != nil {
			s.t.Fatal(err)
		}
	}
	rx := newMixReceiver(model, shard, mixSimStaleAfter, nil)
	m := &mixSimMember{module: module, model: model, rx: rx,
		pub: newMixPublisher(model, rx, module, shard, s.shards, mixSimKeyframeEvery)}
	s.trainers[shard] = m
	if s.shards > 1 {
		s.subscribe(m)
	}
}

func (s *mixSchedule) newModule() string {
	s.modules++
	return "m" + strconv.Itoa(s.modules)
}

// subscribe delivers the retained keyframes, as a broker does on subscribe.
func (s *mixSchedule) subscribe(m *mixSimMember) {
	for _, msg := range s.retained {
		m.enqueue(msg)
	}
}

// subscribers are the members hearing the MIX stream: the trainers when
// the task is sharded, and the predictor once it has joined.
func (s *mixSchedule) subscribers() []*mixSimMember {
	var out []*mixSimMember
	if s.shards > 1 {
		out = append(out, s.trainers...)
	}
	if s.pred != nil {
		out = append(out, s.pred)
	}
	return out
}

// round runs one real publisher round of m and fans its payloads out.
func (s *mixSchedule) round(m *mixSimMember) {
	m.pub.publishRound(s.now, func(payload []byte, keyframe bool) {
		msg := mixSimMsg{from: m.module, payload: append([]byte(nil), payload...)}
		if keyframe {
			s.retain(msg)
		}
		for _, sub := range s.subscribers() {
			if s.lossy && s.rng.Intn(10) == 0 {
				continue // 10 % payload loss
			}
			sub.enqueue(msg)
		}
	})
}

func (s *mixSchedule) retain(msg mixSimMsg) {
	s.history = append(s.history, msg)
	for i := range s.retained {
		if s.retained[i].from == msg.from {
			s.retained[i] = msg
			return
		}
	}
	s.retained = append(s.retained, msg)
}

// deliver hands m the head of one of its nonempty queues.
func (s *mixSchedule) deliver(m *mixSimMember) {
	var ready []int
	for i, q := range m.inbox {
		if len(q.msgs) > 0 {
			ready = append(ready, i)
		}
	}
	if len(ready) == 0 {
		return
	}
	q := &m.inbox[ready[s.rng.Intn(len(ready))]]
	payload := q.msgs[0]
	q.msgs = q.msgs[1:]
	h, err := DecodeMix(payload, s.syms, &m.dec)
	if err != nil {
		s.t.Fatal(err)
	}
	m.rx.onPayload(h, &m.dec, s.now)
}

func (s *mixSchedule) train(m *mixSimMember) {
	x1, x2 := s.rng.Float64()*2-1, s.rng.Float64()*2-1
	v := feature.Vector{mixSimFeatures[s.rng.Intn(3)]: x1, mixSimFeatures[3]: x2}
	label := "cold"
	if x1+x2 > 0 {
		label = "hot"
	}
	m.model.Train(v, label)
}

// drain delivers everything in flight.
func (s *mixSchedule) drain() {
	for {
		var busy []*mixSimMember
		for _, m := range s.subscribers() {
			if m.pending() {
				busy = append(busy, m)
			}
		}
		if len(busy) == 0 {
			return
		}
		s.deliver(busy[s.rng.Intn(len(busy))])
	}
}

// run plays the seeded schedule, quiesces, and returns the largest weight
// difference between any member's model and shard 0's.
func (s *mixSchedule) run() float64 {
	for shard := range s.trainers {
		s.startTrainer(shard, s.newModule(), nil)
	}
	joinAt := s.rng.Intn(mixSimSteps)
	for step := 0; step < mixSimSteps; step++ {
		s.now = s.now.Add(time.Millisecond)
		if step == joinAt {
			s.pred = &mixSimMember{model: ml.NewPassiveAggressive(1)}
			s.pred.rx = newMixReceiver(s.pred.model, noShard, mixSimStaleAfter, nil)
			s.subscribe(s.pred)
		}
		shard := s.rng.Intn(s.shards)
		switch r := s.rng.Intn(100); {
		case r < 40:
			s.train(s.trainers[shard])
		case r < 60:
			s.round(s.trainers[shard])
		case r < 96:
			if subs := s.subscribers(); len(subs) > 0 {
				s.deliver(subs[s.rng.Intn(len(subs))])
			}
		case r < 98:
			// Duplicate or out-of-date keyframe replay.
			if subs := s.subscribers(); len(subs) > 0 && len(s.history) > 0 {
				subs[s.rng.Intn(len(subs))].enqueue(s.history[s.rng.Intn(len(s.history))])
			}
		case r < 99:
			// Same-module restart: rounds reset, restored from its model.
			old := s.trainers[shard]
			s.startTrainer(shard, old.module, old.model)
		default:
			// Failover to a new module, restored from the old one's model;
			// the old module's retained keyframe stays behind.
			s.startTrainer(shard, s.newModule(), s.trainers[shard].model)
		}
	}

	// Quiesce losslessly: deliver everything in flight, then two keyframe
	// cadences of rounds, each delivered in full.
	s.lossy = false
	s.drain()
	for r := 0; r < 2*mixSimKeyframeEvery; r++ {
		for _, m := range s.trainers {
			s.round(m)
		}
		s.drain()
	}

	want := s.trainers[0].model.ExportWeights()
	worst := 0.0
	for _, m := range append([]*mixSimMember{s.pred}, s.trainers[1:]...) {
		worst = math.Max(worst, maxWeightDiff(m.model.ExportWeights(), want))
	}
	return worst
}

// maxWeightDiff is the largest absolute difference between two models'
// weights over the union of their labels and features.
func maxWeightDiff(a, b map[string]feature.Vector) float64 {
	worst := 0.0
	for _, pair := range [][2]map[string]feature.Vector{{a, b}, {b, a}} {
		for label, w := range pair[0] {
			for name, v := range w {
				worst = math.Max(worst, math.Abs(v-pair[1][label][name]))
			}
		}
	}
	return worst
}

// TestMixConvergesUnderAnySchedule is the MIX join-order invariant, run
// without a broker through the real publisher round, mixReceiver and
// codec: 1–4 trainer shards and one modelFrom predictor that joins late
// (retained keyframes first, then live traffic) under seeded interleavings
// of training, rounds and deliveries, with 10 % payload loss, duplicate and
// out-of-date keyframe replays, same-module restarts and failovers to new
// modules. After a lossless quiesce of two keyframe cadences every trainer
// and the predictor hold one model. Failing seeds are logged.
func TestMixConvergesUnderAnySchedule(t *testing.T) {
	const seedsPerCount = 500
	for shards := 1; shards <= 4; shards++ {
		var failed []int64
		for seed := int64(1); seed <= seedsPerCount; seed++ {
			s := &mixSchedule{
				t: t, rng: rand.New(rand.NewSource(seed)), syms: feature.DefaultSymbols(),
				shards: shards, lossy: true, now: time.Unix(0, 0),
				trainers: make([]*mixSimMember, shards),
			}
			if diff := s.run(); diff > 1e-9 {
				failed = append(failed, seed)
				t.Logf("shards=%d seed=%d: members differ by %.3e", shards, seed, diff)
			}
		}
		if len(failed) > 0 {
			t.Errorf("shards=%d: %d of %d seeds diverged: %v", shards, len(failed), seedsPerCount, failed)
		}
	}
}
