// Package experiment reproduces the paper's evaluation (Section V): six
// IFoT neuron modules on one wireless LAN (Fig. 7), wired as in Fig. 9 —
// modules A/B/C sense and publish, module D brokers, module E joins and
// trains, module F joins and predicts, with an actuator behind F. The
// experiment replays this topology on the discrete-event simulator using
// the calibrated Raspberry Pi 2 device model, measuring the
// sensing→training (Table II) and sensing→predicting (Table III) delays
// while sweeping the sensor rate over 5/10/20/40/80 Hz.
package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ifot-middleware/ifot/internal/device"
	"github.com/ifot-middleware/ifot/internal/flow"
	"github.com/ifot-middleware/ifot/internal/metrics"
	"github.com/ifot-middleware/ifot/internal/netsim"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/sim"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// Placement selects the processing architecture under test.
type Placement int

// Architectures.
const (
	// PlaceLocal is the paper's PO3 architecture: all processing on
	// LAN-local neuron modules (Fig. 9).
	PlaceLocal Placement = iota + 1
	// PlaceCloud is the Fig. 1 baseline: streams cross a WAN to a fast
	// cloud node for processing; decisions return over the WAN.
	PlaceCloud
)

// Config parameterizes one experiment run.
type Config struct {
	// SensorCount is the number of sensor modules (paper: 3).
	SensorCount int
	// RateHz is the per-sensor sampling rate (paper: 5–80 Hz).
	RateHz float64
	// Duration is the measured interval (default 30s of virtual time).
	Duration time.Duration
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// NeuronProfile is the per-module device model (default RPi 2).
	NeuronProfile device.Profile
	// Costs is the middleware cost model (default calibrated).
	Costs device.CostModel
	// Placement selects local (PO3) or cloud-centric processing.
	Placement Placement
	// BrokerOnTrainer co-locates the broker with the training module
	// (broker-placement ablation).
	BrokerOnTrainer bool
	// TrainShards splits training across this many modules
	// (parallelization ablation; default 1).
	TrainShards int
	// QoS1 models at-least-once delivery overhead (acknowledgement
	// processing at publisher and broker).
	QoS1 bool
	// BrokerCount spreads the sensor population across this many broker
	// modules (default 1 — the paper's single module D). Multiple
	// brokers model the bridged/federated deployment of
	// internal/bridge, the scalability fix for the single-broker
	// bottleneck.
	BrokerCount int
}

// The calibration of the paper's testbed. Every run uses it; the links
// are netsim.DefaultWLAN (sensors, broker and analysis modules) and
// netsim.WAN (the cloud uplink under PlaceCloud).
const (
	// hiccupProb is the per-hop probability of a long stall (WiFi
	// contention / GC pause), producing the paper's ~350 ms Max values
	// at low rates; hiccupDelay is the stall duration.
	hiccupProb  = 0.004
	hiccupDelay = 290 * time.Millisecond
	// trainQueueLimit / predictQueueLimit bound the number of joined
	// batches admitted to the Learning/Judging classes (Jubatus's
	// internal task queue); excess batches are shed. These bounds are
	// what keep the saturation latency finite in Tables II/III.
	trainQueueLimit   = 22
	predictQueueLimit = 22
	// brokerQueueLimit bounds the broker module's job queue.
	brokerQueueLimit = 230
	// costJitterCV is the coefficient of variation of per-job service
	// cost (Jubatus/OS noise on the RPi); without it the deterministic
	// arrival process would show no queueing below saturation.
	costJitterCV = 0.7
)

// DefaultConfig returns the configuration of the paper's experiment at the
// given sensing rate.
func DefaultConfig(rateHz float64) Config {
	return Config{
		SensorCount:   3,
		RateHz:        rateHz,
		Duration:      30 * time.Second,
		Seed:          1,
		NeuronProfile: device.RaspberryPi2(),
		Costs:         device.DefaultCosts(),
		Placement:     PlaceLocal,
		TrainShards:   1,
	}
}

func (c Config) withDefaults() Config {
	if c.SensorCount <= 0 {
		c.SensorCount = 3
	}
	if c.RateHz <= 0 {
		c.RateHz = 5
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.NeuronProfile.CapacityOps <= 0 {
		c.NeuronProfile = device.RaspberryPi2()
	}
	if c.Costs == (device.CostModel{}) {
		c.Costs = device.DefaultCosts()
	}
	if c.Placement == 0 {
		c.Placement = PlaceLocal
	}
	if c.TrainShards <= 0 {
		c.TrainShards = 1
	}
	if c.BrokerCount <= 0 {
		c.BrokerCount = 1
	}
	return c
}

// Result aggregates one run's measurements.
type Result struct {
	Config Config
	// Training is the sensing→training delay distribution (Table II).
	Training metrics.Summary
	// Predicting is the sensing→predicting delay distribution (Table III).
	Predicting metrics.Summary
	// SamplesSent counts emitted sensor samples (all sensors).
	SamplesSent int64
	// TrainCompleted / PredictCompleted count finished analyses.
	TrainCompleted   int64
	PredictCompleted int64
	// TrainDropped / PredictDropped count batches shed at saturated
	// queues.
	TrainDropped   int64
	PredictDropped int64
	// Utilization per pipeline station at the end of the run.
	Utilization map[string]float64
	// TrainStages / PredictStages decompose the end-to-end latency into
	// telescoping pipeline stages (publish, uplink, broker, downlink,
	// decode, join-wait, analyze; plus return for cloud placement). Each
	// stage is aggregated over the same completed batches as the e2e
	// summaries, so the stage means sum to the e2e mean.
	TrainStages   []telemetry.StageStat
	PredictStages []telemetry.StageStat
}

const (
	sampleWireBytes = 72  // 32-byte sample + MQTT/TCP framing
	batchWireBytes  = 140 // 3 joined samples + framing
)

// Run executes one experiment in virtual time and returns its measurements.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	start := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	engine := sim.NewEngine(start)
	rng := rand.New(rand.NewSource(cfg.Seed))

	res := Result{Config: cfg, Utilization: make(map[string]float64)}
	trainRec := metrics.NewLatencyRecorder()
	predictRec := metrics.NewLatencyRecorder()

	// Per-stage latency decomposition (ifot-bench -breakdown). Recording
	// only captures timestamps inside existing callbacks — no extra
	// engine events, no randomness — so instrumented runs are
	// bit-identical to uninstrumented ones.
	engineClk := engine.Clock()
	bdTrain := newBreakdown("train", telemetry.NewTracer(engineClk, telemetry.DefaultTraceCapacity))
	bdPredict := newBreakdown("predict", telemetry.NewTracer(engineClk, telemetry.DefaultTraceCapacity))

	// --- stations ---
	sensors := make([]*sim.Station, cfg.SensorCount)
	for i := range sensors {
		sensors[i] = cfg.NeuronProfile.NewStation(engine, moduleName(i))
	}

	var cloud *sim.Station
	var trainerHost, trainerIO, predictor, predictorIO *sim.Station
	var brokers []*sim.Station
	var trainers []*sim.Station

	unbounded := cfg.NeuronProfile
	unbounded.QueueLimit = 0 // batch admission is limited separately
	brokerProfile := cfg.NeuronProfile
	brokerProfile.QueueLimit = brokerQueueLimit

	switch cfg.Placement {
	case PlaceCloud:
		// One fast shared cloud node hosts broker, join, and analysis.
		cloudProfile := device.ManagementNode()
		cloudProfile.CapacityOps *= 2 // datacenter-class machine
		cloudProfile.QueueLimit = 1 << 16
		cloud = cloudProfile.NewStation(engine, "cloud")
		trainerHost, predictor = cloud, cloud
		trainerIO, predictorIO = cloud, cloud
		brokers = []*sim.Station{cloud}
		trainers = []*sim.Station{cloud}
	default:
		// The RPi 2 is quad-core: the MQTT receive/decode path (I/O
		// core) runs beside the analysis thread (CPU core), so each
		// analysis module gets separate I/O and CPU stations.
		trainerHost = unbounded.NewStation(engine, "moduleE-cpu")
		trainerIO = unbounded.NewStation(engine, "moduleE-io")
		trainers = []*sim.Station{trainerHost}
		for s := 1; s < cfg.TrainShards; s++ {
			trainers = append(trainers, unbounded.NewStation(engine, fmt.Sprintf("moduleE%d-cpu", s+1)))
		}
		predictor = unbounded.NewStation(engine, "moduleF-cpu")
		predictorIO = unbounded.NewStation(engine, "moduleF-io")
		if cfg.BrokerOnTrainer {
			brokers = []*sim.Station{trainerIO}
		} else {
			brokers = append(brokers, brokerProfile.NewStation(engine, "moduleD"))
			for i := 1; i < cfg.BrokerCount; i++ {
				brokers = append(brokers, brokerProfile.NewStation(engine, fmt.Sprintf("moduleD%d", i+1)))
			}
		}
	}

	// jitterCost perturbs a job's service cost to model Jubatus/OS
	// variability on the RPi.
	jitterCost := func(base float64) float64 {
		mult := 1 + costJitterCV*rng.NormFloat64()
		if mult < 0.2 {
			mult = 0.2
		}
		return base * mult
	}

	hop := func(profile netsim.Profile, size int, then func()) {
		delay := profile.Delay(rng, size)
		if rng.Float64() < hiccupProb {
			delay += hiccupDelay
		}
		engine.After(delay, then)
	}

	lan, wan := netsim.DefaultWLAN(), netsim.WAN()
	uplink := lan
	if cfg.Placement == PlaceCloud {
		uplink = wan
	}

	// --- joins (Subscribe class of Fig. 9) ---
	sources := make([]string, cfg.SensorCount)
	for i := range sources {
		sources[i] = moduleName(i)
	}
	publishCost := cfg.Costs.Publish
	routeCost := cfg.Costs.BrokerRoute
	if cfg.QoS1 {
		publishCost += 0.5 // PUBACK handling at the publisher
		routeCost += 0.5   // acknowledgement generation at the broker
	}

	completeTrain := func(seq uint32, sensedAt time.Time, at time.Time) {
		trainRec.Record(at.Sub(sensedAt))
		res.TrainCompleted++
		bdTrain.complete(seq, at, at)
	}
	completePredict := func(seq uint32, sensedAt time.Time, at time.Time) {
		if cfg.Placement == PlaceCloud {
			// Decisions must return to the edge over the WAN before
			// they are usable for actuation (Fig. 1's feedback loop).
			hop(wan, sampleWireBytes, func() {
				predictRec.Record(engine.Now().Sub(sensedAt))
				res.PredictCompleted++
				bdPredict.complete(seq, at, engine.Now())
			})
			return
		}
		predictRec.Record(at.Sub(sensedAt))
		res.PredictCompleted++
		bdPredict.complete(seq, at, at)
	}

	newJoiner := func(bd *breakdown, host func(seq uint32) *sim.Station, batchCost float64, admitLimit int,
		dropped *int64, complete func(uint32, time.Time, time.Time)) *flow.Joiner {
		admitted := 0
		return flow.NewJoiner(sources, 64, func(seq uint32, batch []sensor.Sample) {
			sensedAt := earliest(batch)
			bd.fired(seq, engine.Now())
			if admitted >= admitLimit {
				*dropped++
				bd.drop(seq)
				return
			}
			admitted++
			st := host(seq)
			st.Submit(jitterCost(batchCost), func(at time.Time) {
				admitted--
				complete(seq, sensedAt, at)
			})
		})
	}
	trainShardFor := func(seq uint32) *sim.Station {
		return trainers[int(seq)%len(trainers)]
	}
	joinerE := newJoiner(bdTrain, trainShardFor, cfg.Costs.TrainBatch, trainQueueLimit*cfg.TrainShards,
		&res.TrainDropped, completeTrain)
	joinerF := newJoiner(bdPredict, func(uint32) *sim.Station { return predictor }, cfg.Costs.PredictBatch,
		predictQueueLimit, &res.PredictDropped, completePredict)

	// brokerFor spreads sensors across the (possibly federated) brokers.
	brokerFor := func(sensorIdx int) *sim.Station {
		return brokers[sensorIdx%len(brokers)]
	}

	// deliver models the broker fanning one sample out to the two
	// analysis subscribers (E and F paths).
	deliver := func(src string, smp sensor.Sample) {
		arrived := engine.Now()
		bdTrain.uplinked(smp.Seq, src, arrived)
		bdPredict.uplinked(smp.Seq, src, arrived)
		targets := []struct {
			host   *sim.Station
			joiner *flow.Joiner
			bd     *breakdown
		}{
			{trainerIO, joinerE, bdTrain},
			{predictorIO, joinerF, bdPredict},
		}
		brokerSt := brokerFor(int(smp.SensorIndex))
		for _, tgt := range targets {
			tgt := tgt
			brokerSt.Submit(jitterCost(routeCost), func(at time.Time) {
				tgt.bd.routed(smp.Seq, src, at)
				hop(lan, sampleWireBytes, func() {
					tgt.bd.downlinked(smp.Seq, src, engine.Now())
					tgt.host.Submit(jitterCost(cfg.Costs.SubscribeDecode), func(at time.Time) {
						tgt.bd.decoded(smp.Seq, src, at)
						tgt.joiner.Push(src, smp)
					})
				})
			})
		}
	}

	// --- sensing schedule ---
	period := time.Duration(float64(time.Second) / cfg.RateHz)
	end := start.Add(cfg.Duration)
	var seq uint32
	engine.Every(start.Add(period), period, func() bool { return engine.Now().Before(end) }, func() {
		seq++
		currentSeq := seq
		bdTrain.prune(currentSeq)
		bdPredict.prune(currentSeq)
		for i, sensorSt := range sensors {
			src := moduleName(i)
			smp := sensor.Sample{
				SensorIndex: uint16(i),
				Kind:        sensor.Accelerometer,
				Seq:         currentSeq,
				Timestamp:   engine.Now(),
			}
			res.SamplesSent++
			bdTrain.sensed(currentSeq, src, smp.Timestamp)
			bdPredict.sensed(currentSeq, src, smp.Timestamp)
			sensorSt.Submit(jitterCost(cfg.Costs.SensorRead+publishCost), func(at time.Time) {
				bdTrain.published(currentSeq, src, at)
				bdPredict.published(currentSeq, src, at)
				hop(uplink, sampleWireBytes, func() {
					deliver(src, smp)
				})
			})
		}
	})

	// Run past the end so in-flight work drains (bounded queues ensure
	// this terminates quickly).
	engine.Run(end.Add(time.Minute))

	res.Training = trainRec.Snapshot()
	res.Predicting = predictRec.Snapshot()
	res.TrainStages = bdTrain.stats()
	res.PredictStages = bdPredict.stats()
	util := func(st *sim.Station) float64 {
		u := float64(st.BusyTime()) / float64(cfg.Duration)
		if u > 1 {
			u = 1
		}
		return u
	}
	for _, st := range sensors {
		res.Utilization[st.Name] = util(st)
	}
	for _, st := range brokers {
		res.Utilization[st.Name] = util(st)
	}
	for _, st := range trainers {
		res.Utilization[st.Name] = util(st)
	}
	res.Utilization[predictor.Name] = util(predictor)
	if trainerIO != trainerHost {
		res.Utilization[trainerIO.Name] = util(trainerIO)
		res.Utilization[predictorIO.Name] = util(predictorIO)
	}
	return res
}

func moduleName(i int) string {
	if i < 3 {
		return "module" + string(rune('A'+i))
	}
	return fmt.Sprintf("moduleS%02d", i)
}

func earliest(batch []sensor.Sample) time.Time {
	var t time.Time
	for _, s := range batch {
		if t.IsZero() || s.Timestamp.Before(t) {
			t = s.Timestamp
		}
	}
	return t
}
