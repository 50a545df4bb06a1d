// Command ifot-bench regenerates every quantitative artifact of the
// paper's evaluation: Table II (sensing→training delay), Table III
// (sensing→predicting delay), the Section V-C latency-vs-rate trend, the
// Fig. 7 topology, the Fig. 9 pipeline trace, and the ablation studies
// catalogued in DESIGN.md.
//
// Usage:
//
//	ifot-bench -table 2          # Table II, measured vs paper
//	ifot-bench -table 2 -breakdown  # + per-stage latency decomposition
//	ifot-bench -table 3          # Table III
//	ifot-bench -sweep            # both tables + shape check
//	ifot-bench -ablation all     # cloud/broker/parallel/qos/scale
//	ifot-bench -topology -trace  # print Fig. 7 / Fig. 9 structure
//	ifot-bench -events           # tail a live cluster's event stream
//
// The live stack is measured by `go run ./bench`, not by this command.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ifot-middleware/ifot/internal/device"
	"github.com/ifot-middleware/ifot/internal/experiment"
	"github.com/ifot-middleware/ifot/internal/metrics"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ifot-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		table     = flag.Int("table", 0, "reproduce one table (2 or 3)")
		sweep     = flag.Bool("sweep", false, "run the full rate sweep (both tables + shape check)")
		ablation  = flag.String("ablation", "", "run ablations: cloud|broker|parallel|qos|scale|all")
		topology  = flag.Bool("topology", false, "print the Fig. 7 evaluation topology")
		breakdown = flag.Bool("breakdown", false, "decompose table latencies per pipeline stage")
		events    = flag.Bool("events", false, "tail the cluster event stream: subscribe ifot/ctrl/events/# on -ebroker and pretty-print structured events")
		ebroker   = flag.String("ebroker", "localhost:1883", "events mode: broker address to tail")
		eduration = flag.Duration("eduration", 0, "events mode: stop after this long (0 = until interrupted)")
		trace     = flag.Bool("trace", false, "print the Fig. 9 class-cooperation pipeline")
		csvPath   = flag.String("csv", "", "also write the sweep series as CSV to this file")
		duration  = flag.Duration("duration", 30*time.Second, "virtual duration per run")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	mutate := func(c *experiment.Config) {
		c.Duration = *duration
		c.Seed = *seed
	}

	did := false
	if *topology {
		printTopology()
		did = true
	}
	if *trace {
		printTrace()
		did = true
	}
	if *table == 2 || *table == 3 || *sweep {
		results := experiment.RunSweep(experiment.PaperRates, mutate)
		if *table == 2 || *sweep {
			fmt.Println(experiment.Format(experiment.Table2SensingTraining, results))
			if *breakdown {
				printBreakdown("sensing→training", results,
					func(r experiment.Result) ([]telemetry.StageStat, time.Duration) {
						return r.TrainStages, r.Training.Mean
					})
			}
		}
		if *table == 3 || *sweep {
			fmt.Println(experiment.Format(experiment.Table3SensingPredict, results))
			if *breakdown {
				printBreakdown("sensing→predicting", results,
					func(r experiment.Result) ([]telemetry.StageStat, time.Duration) {
						return r.PredictStages, r.Predicting.Mean
					})
			}
		}
		if *csvPath != "" {
			if err := writeCSV(*csvPath, results); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *csvPath)
		}
		if *sweep {
			printTrend(results)
			if v := experiment.ShapeReport(results, results); len(v) > 0 {
				fmt.Println("SHAPE VIOLATIONS:")
				for _, claim := range v {
					fmt.Println("  -", claim)
				}
			} else {
				fmt.Println("shape check: all Section V-C claims hold")
			}
		}
		did = true
	}
	if *events {
		if err := runEventTail(*ebroker, *eduration); err != nil {
			return err
		}
		did = true
	}
	if *ablation != "" {
		if err := runAblations(*ablation, mutate); err != nil {
			return err
		}
		did = true
	}
	if !did {
		flag.Usage()
	}
	return nil
}

func printTopology() {
	fmt.Println(`Fig. 7 evaluation topology (all on one wireless LAN):

  Management Node (ThinkPad X250) ──┐
                                    │ control topics (ifot/ctrl/#)
  ┌────────┬────────┬────────┬──────┴─┬────────┬────────┐
  moduleA  moduleB  moduleC  moduleD  moduleE  moduleF
  (sense)  (sense)  (sense)  (broker) (train)  (predict)
                                               └─ actuator node
  All neuron modules: Raspberry Pi 2 (ARM Cortex-A7 900 MHz, 1 GB).`)
	fmt.Println()
}

func printTrace() {
	fmt.Println(`Fig. 9 class cooperation (per sample at rate R on each of A, B, C):

  Training path (Table II):
    Sensor class (A/B/C) -> Publish class -> [WLAN] -> Broker class (D)
      -> [WLAN] -> Subscribe class (E) -> join(A,B,C) -> Train class (E)

  Predicting path (Table III):
    Sensor class (A/B/C) -> Publish class -> [WLAN] -> Broker class (D)
      -> [WLAN] -> Subscribe class (F) -> join(A,B,C) -> Predict class (F)
      -> Actuator class`)
	fmt.Println()
}

// printBreakdown renders the per-stage decomposition of one path's
// latency: each cell is that stage's mean contribution in ms, and the
// stage means telescope, so Σstages should equal the e2e average (the
// final column reports the residual, expected ≈0).
func printBreakdown(path string, results []experiment.Result,
	pick func(experiment.Result) ([]telemetry.StageStat, time.Duration)) {
	if len(results) == 0 {
		return
	}
	stages, _ := pick(results[0])
	fmt.Printf("Stage decomposition, %s avg (ms):\n", path)
	fmt.Printf("%-10s", "rate(Hz)")
	for _, st := range stages {
		fmt.Printf(" %-10s", st.Stage)
	}
	fmt.Printf(" %-10s %-10s\n", "Σstages", "e2e(Δ%)")
	for _, r := range results {
		stages, e2e := pick(r)
		fmt.Printf("%-10.0f", r.Config.RateHz)
		var sum time.Duration
		for _, st := range stages {
			fmt.Printf(" %-10.1f", metrics.Millis(st.Mean))
			sum += st.Mean
		}
		delta := 0.0
		if e2e > 0 {
			delta = 100 * (float64(sum) - float64(e2e)) / float64(e2e)
		}
		fmt.Printf(" %-10.1f %.1f (%+.2f%%)\n", metrics.Millis(sum), metrics.Millis(e2e), delta)
	}
	fmt.Println()
}

func printTrend(results []experiment.Result) {
	fmt.Println("Latency vs sensing rate (Section V-C trend; percentiles over the run):")
	fmt.Printf("%-10s %-14s %-10s %-10s %-10s %-14s %-10s %-10s %-10s %-10s %-10s\n",
		"rate(Hz)", "train avg(ms)", "p50", "p95", "p99",
		"pred avg(ms)", "p50", "p95", "p99", "trainDrop", "predDrop")
	for _, r := range results {
		fmt.Printf("%-10.0f %-14.1f %-10.1f %-10.1f %-10.1f %-14.1f %-10.1f %-10.1f %-10.1f %-10d %-10d\n",
			r.Config.RateHz,
			metrics.Millis(r.Training.Mean),
			metrics.Millis(r.Training.P50), metrics.Millis(r.Training.P95), metrics.Millis(r.Training.P99),
			metrics.Millis(r.Predicting.Mean),
			metrics.Millis(r.Predicting.P50), metrics.Millis(r.Predicting.P95), metrics.Millis(r.Predicting.P99),
			r.TrainDropped, r.PredictDropped)
	}
	fmt.Println()
}

func runAblations(which string, mutate func(*experiment.Config)) error {
	all := which == "all"
	any := false
	if all || strings.Contains(which, "cloud") {
		ablateCloud(mutate)
		any = true
	}
	if all || strings.Contains(which, "broker") {
		ablateBroker(mutate)
		any = true
	}
	if all || strings.Contains(which, "parallel") {
		ablateParallel(mutate)
		any = true
	}
	if all || strings.Contains(which, "qos") {
		ablateQoS(mutate)
		any = true
	}
	if all || strings.Contains(which, "scale") {
		ablateScale(mutate)
		any = true
	}
	if all || strings.Contains(which, "hardware") {
		ablateHardware(mutate)
		any = true
	}
	if all || strings.Contains(which, "quality") {
		ablateQuality()
		any = true
	}
	if !any {
		return fmt.Errorf("unknown ablation %q (want cloud|broker|parallel|qos|scale|hardware|quality|all)", which)
	}
	return nil
}

func ablateCloud(mutate func(*experiment.Config)) {
	fmt.Println("ABLATION: local (PO3) vs cloud-centric (Fig. 1 paradigms)")
	fmt.Printf("%-10s %-20s %-20s\n", "rate(Hz)", "local pred avg(ms)", "cloud pred avg(ms)")
	for _, rate := range experiment.PaperRates {
		local := experiment.DefaultConfig(rate)
		mutate(&local)
		cloud := local
		cloud.Placement = experiment.PlaceCloud
		lr, cr := experiment.Run(local), experiment.Run(cloud)
		fmt.Printf("%-10.0f %-20.1f %-20.1f\n", rate,
			metrics.Millis(lr.Predicting.Mean), metrics.Millis(cr.Predicting.Mean))
	}
	fmt.Println()
}

func ablateBroker(mutate func(*experiment.Config)) {
	fmt.Println("ABLATION: broker placement (dedicated module D vs co-located with trainer)")
	fmt.Printf("%-10s %-22s %-22s\n", "rate(Hz)", "dedicated pred(ms)", "co-located pred(ms)")
	for _, rate := range experiment.PaperRates {
		ded := experiment.DefaultConfig(rate)
		mutate(&ded)
		co := ded
		co.BrokerOnTrainer = true
		dr, cr := experiment.Run(ded), experiment.Run(co)
		fmt.Printf("%-10.0f %-22.1f %-22.1f\n", rate,
			metrics.Millis(dr.Predicting.Mean), metrics.Millis(cr.Predicting.Mean))
	}
	fmt.Println()
}

func ablateParallel(mutate func(*experiment.Config)) {
	fmt.Println("ABLATION: parallel training (paper future work: task parallelization)")
	fmt.Printf("%-10s %-16s %-16s %-16s\n", "rate(Hz)", "1 shard (ms)", "2 shards (ms)", "3 shards (ms)")
	for _, rate := range experiment.PaperRates {
		row := make([]float64, 0, 3)
		for _, shards := range []int{1, 2, 3} {
			cfg := experiment.DefaultConfig(rate)
			mutate(&cfg)
			cfg.TrainShards = shards
			r := experiment.Run(cfg)
			row = append(row, metrics.Millis(r.Training.Mean))
		}
		fmt.Printf("%-10.0f %-16.1f %-16.1f %-16.1f\n", rate, row[0], row[1], row[2])
	}
	fmt.Println()
}

func ablateQoS(mutate func(*experiment.Config)) {
	fmt.Println("ABLATION: QoS 0 vs QoS 1 flow distribution")
	fmt.Printf("%-10s %-18s %-18s %-14s %-14s\n", "rate(Hz)", "QoS0 train(ms)", "QoS1 train(ms)", "QoS0 brokerU", "QoS1 brokerU")
	for _, rate := range experiment.PaperRates {
		q0 := experiment.DefaultConfig(rate)
		mutate(&q0)
		q1 := q0
		q1.QoS1 = true
		r0, r1 := experiment.Run(q0), experiment.Run(q1)
		fmt.Printf("%-10.0f %-18.1f %-18.1f %-14.2f %-14.2f\n", rate,
			metrics.Millis(r0.Training.Mean), metrics.Millis(r1.Training.Mean),
			r0.Utilization["moduleD(raspberry-pi-2)"], r1.Utilization["moduleD(raspberry-pi-2)"])
	}
	fmt.Println()
}

func ablateScale(mutate func(*experiment.Config)) {
	fmt.Println("ABLATION: sensor-count scaling at 10 Hz (paper future work: scalability)")
	fmt.Printf("%-10s %-16s %-12s %-20s %-12s\n", "sensors",
		"1-broker tr(ms)", "brokerU", "2-broker tr(ms)", "brokerU")
	for _, n := range []int{3, 6, 12, 24, 48} {
		cfg := experiment.DefaultConfig(10)
		mutate(&cfg)
		cfg.SensorCount = n
		single := experiment.Run(cfg)
		fed := cfg
		fed.BrokerCount = 2
		dual := experiment.Run(fed)
		fmt.Printf("%-10d %-16.1f %-12.2f %-20.1f %-12.2f\n", n,
			metrics.Millis(single.Training.Mean),
			single.Utilization["moduleD(raspberry-pi-2)"],
			metrics.Millis(dual.Training.Mean),
			dual.Utilization["moduleD(raspberry-pi-2)"])
	}
	fmt.Println()
}

// writeCSV dumps the sweep series (the paper's trend "figure" data) for
// external plotting.
func writeCSV(path string, results []experiment.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	header := []string{"rate_hz",
		"train_avg_ms", "train_max_ms", "train_dropped",
		"predict_avg_ms", "predict_max_ms", "predict_dropped"}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, r := range results {
		row := []string{
			strconv.FormatFloat(r.Config.RateHz, 'f', -1, 64),
			strconv.FormatFloat(metrics.Millis(r.Training.Mean), 'f', 3, 64),
			strconv.FormatFloat(metrics.Millis(r.Training.Max), 'f', 3, 64),
			strconv.FormatInt(r.TrainDropped, 10),
			strconv.FormatFloat(metrics.Millis(r.Predicting.Mean), 'f', 3, 64),
			strconv.FormatFloat(metrics.Millis(r.Predicting.Max), 'f', 3, 64),
			strconv.FormatInt(r.PredictDropped, 10),
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

func ablateHardware(mutate func(*experiment.Config)) {
	fmt.Println("ABLATION: neuron hardware (Raspberry Pi 2 vs Pi 3 — future-work performance)")
	fmt.Printf("%-10s %-18s %-18s %-18s %-18s\n", "rate(Hz)",
		"Pi2 train(ms)", "Pi3 train(ms)", "Pi2 pred(ms)", "Pi3 pred(ms)")
	for _, rate := range experiment.PaperRates {
		pi2 := experiment.DefaultConfig(rate)
		mutate(&pi2)
		pi3 := pi2
		pi3.NeuronProfile = device.RaspberryPi3()
		r2, r3 := experiment.Run(pi2), experiment.Run(pi3)
		fmt.Printf("%-10.0f %-18.1f %-18.1f %-18.1f %-18.1f\n", rate,
			metrics.Millis(r2.Training.Mean), metrics.Millis(r3.Training.Mean),
			metrics.Millis(r2.Predicting.Mean), metrics.Millis(r3.Predicting.Mean))
	}
	fmt.Println()
}

func ablateQuality() {
	fmt.Println("SUPPLEMENTARY: anomaly-detector quality (precision/recall on injected anomalies)")
	fmt.Printf("%-10s %-12s %-12s %-10s %-10s\n", "detector", "threshold", "precision", "recall", "F1")
	for _, tc := range []struct {
		detector  string
		threshold float64
	}{
		{"zscore", 3}, {"zscore", 6}, {"zscore", 9},
		{"knn", 10}, {"knn", 50}, {"knn", 100},
	} {
		r := experiment.RunDetectionQuality(experiment.DefaultQualityConfig(tc.detector, tc.threshold))
		fmt.Printf("%-10s %-12.1f %-12.3f %-10.3f %-10.3f\n",
			tc.detector, tc.threshold, r.Precision(), r.Recall(), r.F1())
	}
	fmt.Println()
}
