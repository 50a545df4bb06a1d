// Command ifot-neuron runs one IFoT neuron module: it connects to the
// flow-distribution broker, announces its sensors/actuators and capacity,
// and executes subtasks assigned by the management node.
//
// Usage:
//
//	ifot-neuron -id moduleA -broker localhost:1883 \
//	    -sensor acc1:accelerometer:20 -sensor lux1:illuminance:5 \
//	    -actuator light -capacity 1000
//
// Sensor specs are name:kind:rateHz where kind is one of accelerometer,
// illuminance, sound, motion, temperature, humidity. Virtual sensors emit
// synthetic waveforms (the reproduction's stand-in for physical hardware).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

type stringsFlag []string

func (s *stringsFlag) String() string { return strings.Join(*s, ",") }

func (s *stringsFlag) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ifot-neuron:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id        = flag.String("id", "", "module identity (required)")
		brokerStr = flag.String("broker", "localhost:1883", "broker address")
		capacity  = flag.Float64("capacity", 1000, "advertised processing capacity (ops/s)")
		verbose   = flag.Bool("v", false, "log middleware events")
		telAddr   = flag.String("telemetry", "", "HTTP address serving /metrics, /traces, /flows, /events and /debug/pprof (empty = off)")
		sysEvery  = flag.Duration("sys-stats", 0, "publish module metrics retained under $SYS/modules/<id>/ at this interval (0 = off)")
		traceCap  = flag.Int("trace-capacity", telemetry.DefaultTraceCapacity, "spans retained in the tracer ring buffer")
		traceExp  = flag.Duration("trace-export", time.Second, "interval for publishing completed spans on ifot/ctrl/trace/<id> (0 = no export)")
		traceSmp  = flag.Uint("trace-sample", 32, "trace one flow in every N (1 = every flow)")
		dataDir   = flag.String("data-dir", "", "directory for the model-checkpoint WAL (empty = in-memory only)")
		ckptEvery = flag.Duration("checkpoint-interval", 30*time.Second, "interval between ML model checkpoints (needs -data-dir or -ckpt-handoff)")
		ckptHand  = flag.Bool("ckpt-handoff", false, "publish model checkpoints as retained broker blobs so a failover target resumes warm")
		fenceAft  = flag.Duration("fence-after", 0, "self-fence task outputs after this long without a broker announce ack (0 = off)")
		drainTmo  = flag.Duration("drain-timeout", 0, "on SIGTERM, ask the manager to move tasks off and wait up to this long before closing (0 = immediate close)")
		mixKeyfr  = flag.Int("mix-keyframe", 0, "publish this shard's MIX contribution as a retained keyframe every N rounds (0 = default cadence, 1 = the whole contribution every round)")
		mixStale  = flag.Duration("mix-stale-after", 0, "evict MIX shards silent for longer than this (0 = 3x the mix interval)")
		eventCap  = flag.Int("event-capacity", telemetry.DefaultEventCapacity, "structured events retained for the local /events endpoint")
		eventExp  = flag.Duration("event-export", time.Second, "interval for publishing events on ifot/ctrl/events/<id> (0 = no export)")
		sensors   stringsFlag
		actuators stringsFlag
		caps      stringsFlag
	)
	flag.Var(&sensors, "sensor", "virtual sensor spec name:kind:rateHz (repeatable)")
	flag.Var(&actuators, "actuator", "virtual actuator name (repeatable)")
	flag.Var(&caps, "capability", "extra advertised capability (repeatable)")
	flag.Parse()
	if *id == "" {
		return fmt.Errorf("-id is required")
	}

	cfg := core.Config{
		ID:           *id,
		CapacityOps:  *capacity,
		Capabilities: caps,
		Dial: func() (net.Conn, error) {
			return net.Dial("tcp", *brokerStr)
		},
		MixKeyframeEvery:  *mixKeyfr,
		MixStaleAfter:     *mixStale,
		CheckpointHandoff: *ckptHand,
		FenceAfter:        *fenceAft,
	}
	if *ckptHand {
		cfg.CheckpointInterval = *ckptEvery
	}
	// Create the event log up front and share it with the store, so WAL
	// recovery events emitted during store.Open (before the module
	// exists) ride the module's ring and export stream.
	cfg.Events = telemetry.NewEventLog(*eventCap)
	cfg.EventExportInterval = *eventExp
	if *telAddr != "" || *sysEvery > 0 {
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.Tracer = telemetry.NewTracer(nil, *traceCap)
		// Expose the tracer's per-stage latency SLO quantiles
		// (p50/p95/p99/max) as gauges on /metrics and $SYS.
		cfg.Tracer.BindRegistry(cfg.Telemetry, "")
		cfg.TraceExportInterval = *traceExp
		cfg.TraceSampleEvery = uint32(*traceSmp)
	}
	if *telAddr != "" {
		bound, shutdown, err := telemetry.StartServer(*telAddr, cfg.Telemetry, cfg.Tracer, cfg.Events)
		if err != nil {
			return err
		}
		defer func() { _ = shutdown(context.Background()) }()
		log.Printf("telemetry on http://%s/metrics", bound)
	}
	if *dataDir != "" {
		st, err := store.Open(*dataDir, store.Options{
			Name:     "neuron",
			Registry: cfg.Telemetry,
			Events:   cfg.Events,
		})
		if err != nil {
			return fmt.Errorf("open data dir %s: %w", *dataDir, err)
		}
		defer st.Close()
		cfg.Store = st
		cfg.CheckpointInterval = *ckptEvery
	}
	if *verbose {
		cfg.Logger = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
		cfg.Observer = core.Observer{
			OnTrain: func(ev core.TrainEvent) {
				log.Printf("trained %s/%s seq=%d examples=%d latency=%v",
					ev.Recipe, ev.TaskID, ev.Seq, ev.Examples, ev.At.Sub(ev.SensedAt))
			},
			OnDecision: func(d core.Decision) {
				log.Printf("decision %s/%s %s label=%q score=%.3f latency=%v",
					d.Recipe, d.TaskID, d.Kind, d.Label, d.Score, d.At.Sub(d.SensedAt))
			},
		}
	}
	m := core.NewModule(cfg)

	var sensorIndex uint16
	for _, spec := range sensors {
		s, err := parseSensor(spec, sensorIndex)
		if err != nil {
			return err
		}
		sensorIndex++
		m.RegisterSensor(s)
	}
	for _, name := range actuators {
		m.RegisterActuator(sensor.NewVirtualActuator(name))
	}

	if err := m.Start(); err != nil {
		return err
	}
	log.Printf("neuron %s connected to %s (%d sensors, %d actuators)",
		*id, *brokerStr, len(sensors), len(actuators))

	if *sysEvery > 0 {
		// Mirror this module's metrics into the broker's $SYS tree so
		// fleet state is inspectable with any MQTT client.
		exp := telemetry.NewMQTTExporter("$SYS/modules/"+*id+"/", cfg.Telemetry,
			func(topic string, payload []byte, retain bool) {
				if retain {
					_ = m.PublishRetained(topic, payload)
				} else {
					_ = m.Publish(topic, payload)
				}
			})
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(*sysEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					exp.PublishOnce()
				case <-stop:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if *drainTmo > 0 {
		log.Printf("draining (up to %v)", *drainTmo)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTmo)
		err := m.Drain(ctx)
		cancel()
		if err != nil {
			log.Printf("drain: %v", err)
		} else {
			log.Println("drained")
		}
	}
	log.Println("shutting down")
	return m.Close()
}

func parseSensor(spec string, index uint16) (*sensor.Sensor, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return nil, fmt.Errorf("sensor spec %q: want name:kind:rateHz[:trace.csv]", spec)
	}
	kind, err := parseKind(parts[1])
	if err != nil {
		return nil, err
	}
	rate, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || rate <= 0 {
		return nil, fmt.Errorf("sensor spec %q: bad rate %q", spec, parts[2])
	}
	var gen sensor.Generator
	if len(parts) == 4 {
		data, err := os.ReadFile(parts[3])
		if err != nil {
			return nil, fmt.Errorf("sensor spec %q: %w", spec, err)
		}
		values, err := sensor.LoadTraceCSV(data)
		if err != nil {
			return nil, fmt.Errorf("sensor spec %q: %w", spec, err)
		}
		gen = sensor.Trace(values)
	} else {
		gen = generatorFor(kind, index)
	}
	return &sensor.Sensor{
		ID:     parts[0],
		Index:  index,
		Kind:   kind,
		RateHz: rate,
		Gen:    gen,
	}, nil
}

func parseKind(name string) (sensor.Type, error) {
	switch strings.ToLower(name) {
	case "accelerometer", "acc":
		return sensor.Accelerometer, nil
	case "illuminance", "lux":
		return sensor.Illuminance, nil
	case "sound", "mic":
		return sensor.Sound, nil
	case "motion", "pir":
		return sensor.Motion, nil
	case "temperature", "temp":
		return sensor.Temperature, nil
	case "humidity":
		return sensor.Humidity, nil
	default:
		return 0, fmt.Errorf("unknown sensor kind %q", name)
	}
}

// generatorFor picks a plausible synthetic waveform per modality.
func generatorFor(kind sensor.Type, seed uint16) sensor.Generator {
	s := uint64(seed) + 1
	switch kind {
	case sensor.Accelerometer:
		return sensor.GaussianNoise(0, 1, s)
	case sensor.Illuminance:
		return sensor.RandomWalk(400, 20, 0, 1000, s)
	case sensor.Sound:
		return sensor.GaussianNoise(40, 8, s)
	case sensor.Motion:
		return sensor.SpikeInjector(sensor.Constant(0, 0, 0), 17, 1)
	case sensor.Temperature:
		return sensor.RandomWalk(22, 0.1, 10, 35, s)
	case sensor.Humidity:
		return sensor.RandomWalk(50, 0.5, 20, 90, s)
	default:
		return sensor.Constant(0, 0, 0)
	}
}
