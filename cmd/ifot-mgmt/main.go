// Command ifot-mgmt is the IFoT management node CLI (the role the
// OpenRTM-based management software played in the paper's testbed,
// Fig. 7/8): it lists modules, deploys and undeploys recipes, and queries
// the stream registry.
//
// Usage:
//
//	ifot-mgmt [-broker localhost:1883] modules
//	ifot-mgmt deploy recipe.json
//	ifot-mgmt undeploy <recipe-name> deploy recipe.json   (commands chain)
//	ifot-mgmt streams
//	ifot-mgmt watch 30s
//	ifot-mgmt deploy recipe.json events 30s   (tail this manager's cluster event view)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/tasks"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ifot-mgmt:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		brokerStr = flag.String("broker", "localhost:1883", "broker address")
		strategy  = flag.String("strategy", "least-loaded", "task assignment strategy (least-loaded|round-robin|runtime-aware)")
		failover  = flag.Bool("failover-on-dead", true, "fail tasks over when the health monitor declares their module dead (not just on clean leave)")
		settle    = flag.Duration("settle", 2*time.Second, "time to wait for module announcements")
		telAddr   = flag.String("telemetry", "", "HTTP address serving /metrics, /traces, /flows, /events, /health and /debug/pprof (empty = off)")
		traceCap  = flag.Int("trace-capacity", core.DefaultCollectorSpans, "spans retained by the cluster trace collector (earlier versions counted flow keys here; a Fig. 9 flow key holds up to 6 spans)")
		dataDir   = flag.String("data-dir", "", "directory for the deployment journal (empty = in-memory only); a restarted manager resumes supervising journaled deployments")
		eventCap  = flag.Int("event-capacity", telemetry.DefaultEventCapacity, "structured events retained (the manager's own plus those modules and the broker export)")
		sloTarget = flag.Duration("slo-target", 0, "per-stage latency objective armed as a wildcard SLO burn-rate alert (0 = off)")
		sloQ      = flag.Float64("slo-quantile", 0.95, "objective quantile for -slo-target")
		sloBurn   = flag.Float64("slo-burn", telemetry.DefaultSLOBurnThreshold, "burn-rate multiple that trips the SLO alert")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("usage: ifot-mgmt [flags] <modules|streams|deploy FILE|undeploy NAME|watch DUR|events DUR>")
	}

	strat, err := tasks.NewStrategy(*strategy)
	if err != nil {
		return err
	}
	mcfg := core.ManagerConfig{
		Strategy:            strat,
		Dial:                func() (net.Conn, error) { return net.Dial("tcp", *brokerStr) },
		Logger:              log.New(os.Stderr, "", log.LstdFlags),
		DisableDeadFailover: !*failover,
	}
	mcfg.TraceCapacity = *traceCap
	// Create the event log up front and share it with the store, so WAL
	// recovery events emitted during store.Open (before the manager
	// exists) land in the manager's event view.
	mcfg.Events = telemetry.NewEventLog(*eventCap)
	if *sloTarget > 0 {
		mcfg.SLO = telemetry.SLOConfig{
			Targets:       []telemetry.SLOTarget{{Stage: "*", Quantile: *sloQ, Target: *sloTarget}},
			BurnThreshold: *sloBurn,
		}
	}
	if *telAddr != "" {
		mcfg.Telemetry = telemetry.NewRegistry()
	}
	if *dataDir != "" {
		st, err := store.Open(*dataDir, store.Options{
			Name:     "mgmt",
			Registry: mcfg.Telemetry,
			Logger:   mcfg.Logger,
			Events:   mcfg.Events,
		})
		if err != nil {
			return fmt.Errorf("open data dir %s: %w", *dataDir, err)
		}
		defer st.Close()
		mcfg.Store = st
	}
	mgr := core.NewManager(mcfg)
	if *telAddr != "" {
		// The collector serves /traces (cluster-wide assembled flows) and
		// /flows (per-stage latency SLO digest) alongside /metrics; the
		// event log and health monitor add /events and /health.
		bound, shutdown, err := telemetry.StartServer(*telAddr, mcfg.Telemetry, mgr.Collector(),
			mgr.Events(), mgr.Health())
		if err != nil {
			return err
		}
		defer func() { _ = shutdown(context.Background()) }()
		log.Printf("telemetry on http://%s/metrics", bound)
	}
	if err := mgr.Start(); err != nil {
		return err
	}
	defer mgr.Close()

	// Modules announce on a heartbeat; give them a moment to show up.
	time.Sleep(*settle)

	args := flag.Args()
	for len(args) > 0 {
		cmd := args[0]
		args = args[1:]
		switch cmd {
		case "modules":
			printModules(mgr)
		case "streams":
			printStreams(mgr)
		case "deploy":
			if len(args) == 0 {
				return fmt.Errorf("deploy: missing recipe file")
			}
			if err := deploy(mgr, args[0]); err != nil {
				return err
			}
			args = args[1:]
		case "undeploy":
			if len(args) == 0 {
				return fmt.Errorf("undeploy: missing recipe name")
			}
			if err := mgr.Undeploy(args[0]); err != nil {
				return err
			}
			fmt.Printf("undeployed %s\n", args[0])
			args = args[1:]
		case "watch", "events":
			if len(args) == 0 {
				return fmt.Errorf("%s: missing duration", cmd)
			}
			d, err := time.ParseDuration(args[0])
			if err != nil {
				return fmt.Errorf("%s: %w", cmd, err)
			}
			if cmd == "watch" {
				watch(mgr, d)
			} else {
				tailEvents(mgr.Events(), d)
			}
			args = args[1:]
		default:
			return fmt.Errorf("unknown command %q", cmd)
		}
	}
	return nil
}

func printModules(mgr *core.Manager) {
	mods := mgr.Modules()
	fmt.Printf("%-12s %-10s %-8s %s\n", "MODULE", "CAPACITY", "TASKS", "CAPABILITIES")
	for _, m := range mods {
		fmt.Printf("%-12s %-10.0f %-8d %s\n",
			m.ModuleID, m.CapacityOps, len(m.RunningTasks), strings.Join(m.Capabilities, ","))
	}
	if len(mods) == 0 {
		fmt.Println("(no modules announced)")
	}
}

func printStreams(mgr *core.Manager) {
	streams := mgr.Streams()
	fmt.Printf("%-24s %-16s %-12s %-10s %s\n", "TOPIC", "RECIPE", "TASK", "KIND", "MODULE")
	for _, s := range streams {
		fmt.Printf("%-24s %-16s %-12s %-10s %s\n", s.Topic, s.Recipe, s.TaskID, s.Kind, s.ModuleID)
	}
	if len(streams) == 0 {
		fmt.Println("(no streams registered)")
	}
}

func deploy(mgr *core.Manager, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rec, err := recipe.Unmarshal(data)
	if err != nil {
		return err
	}
	dep, err := mgr.Deploy(rec)
	if err != nil {
		return err
	}
	fmt.Printf("deploying %s (%d subtasks):\n", rec.Name, len(dep.SubTasks))
	for _, s := range dep.SubTasks {
		fmt.Printf("  %-28s -> %s\n", s.Name(), dep.Assignment[s.Name()])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		return fmt.Errorf("waiting for start: %w (pending: %v)", err, dep.PendingTasks())
	}
	fmt.Println("all subtasks running")
	return nil
}

func watch(mgr *core.Manager, d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		printModules(mgr)
		fmt.Println()
		time.Sleep(2 * time.Second)
	}
}

// tailEvents prints the manager's event view in arrival order for d —
// its own events and every one modules and the broker export, from the
// oldest still retained — one line per event:
//
//	15:04:05.000  WARN   moduleB      wal_torn_tail        segment=3 dropped_bytes=112
//
// It reads the log with the same cursor read a module's exporter makes.
func tailEvents(events *telemetry.EventLog, d time.Duration) {
	deadline := time.Now().Add(d)
	var cursor uint64
	for {
		evs, next, lost := events.Read(cursor)
		if lost > 0 {
			fmt.Printf("(%d events overwritten before they were printed)\n", lost)
		}
		for _, ev := range evs {
			printEvent(ev)
		}
		cursor = next
		left := time.Until(deadline)
		if left <= 0 {
			return
		}
		time.Sleep(min(left, 200*time.Millisecond))
	}
}

func printEvent(ev telemetry.Event) {
	keys := make([]string, 0, len(ev.Fields))
	for k := range ev.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var fields strings.Builder
	for _, k := range keys {
		if fields.Len() > 0 {
			fields.WriteByte(' ')
		}
		fmt.Fprintf(&fields, "%s=%s", k, ev.Fields[k])
	}
	if ev.TraceKey != nil {
		if fields.Len() > 0 {
			fields.WriteByte(' ')
		}
		fmt.Fprintf(&fields, "flow=%s/%s/%d", ev.TraceKey.Recipe, ev.TraceKey.TaskID, ev.TraceKey.Seq)
	}
	fmt.Printf("%-12s  %-5s  %-12s %-20s %s\n",
		ev.Time.Format("15:04:05.000"), strings.ToUpper(string(ev.Severity)), ev.Module, ev.Kind, fields.String())
}
