package ifot_test

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// TestBinariesEndToEnd builds the four command-line tools and drives a
// full deployment over real TCP: broker daemon, two neuron daemons, and
// the management CLI deploying examples/recipes/monitoring.json.
func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	binDir := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(binDir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if output, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, output)
		}
		return out
	}
	brokerBin := build("ifot-broker")
	neuronBin := build("ifot-neuron")
	mgmtBin := build("ifot-mgmt")
	benchBin := build("ifot-bench")

	// The bench CLI must print the topology and a table against the paper.
	benchOut, err := exec.Command(benchBin, "-topology", "-table", "2", "-duration", "2s").CombinedOutput()
	if err != nil {
		t.Fatalf("ifot-bench: %v\n%s", err, benchOut)
	}
	for _, want := range []string{"Fig. 7", "TABLE II", "58.969"} {
		if !strings.Contains(string(benchOut), want) {
			t.Fatalf("bench output missing %q:\n%s", want, benchOut)
		}
	}

	// The DES sweep is the bar every refactor is held to: its stdout is
	// byte-identical across PRs (EXPERIMENTS.md). Floating-point results
	// are only pinned on the architecture the constant was recorded on.
	// The -breakdown table is the DES consumer of Tracer.StageStats.
	if runtime.GOARCH == "amd64" {
		for _, pin := range []struct{ args, want string }{
			{"-sweep -duration 10s", "f2e033cd22a7a0036c79bd11c9eeb8e9"},
			{"-sweep -breakdown -duration 10s", "38a8f9ee99e2a5608e371cbe4c6f40b0"},
		} {
			out, err := exec.Command(benchBin, strings.Fields(pin.args)...).Output()
			if err != nil {
				t.Fatalf("ifot-bench %s: %v", pin.args, err)
			}
			if got := fmt.Sprintf("%x", md5.Sum(out)); got != pin.want {
				t.Fatalf("ifot-bench %s md5 = %s, want %s:\n%s", pin.args, got, pin.want, out)
			}
		}
	}

	// Flags of the retired live modes, the JSON MIX exchange and the span
	// export buffer knob are gone, not silently accepted.
	for _, removed := range [][]string{
		{benchBin, "-throughput"}, {neuronBin, "-mix-json"}, {neuronBin, "-trace-export-buffer"},
	} {
		out, err := exec.Command(removed[0], removed[1]).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined") {
			t.Fatalf("%s %s: err = %v, output:\n%s", filepath.Base(removed[0]), removed[1], err, out)
		}
	}

	freePort := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}
	addr := freePort()
	brokerTel := freePort()
	neuronTel := freePort()

	start := func(name string, args ...string) *exec.Cmd {
		cmd := exec.Command(name, args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = &buf
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
			if t.Failed() {
				t.Logf("%s output:\n%s", filepath.Base(name), buf.String())
			}
		})
		return cmd
	}

	start(brokerBin, "-addr", addr, "-telemetry", brokerTel, "-stats", "500ms")
	waitForPort(t, addr)

	start(neuronBin, "-id", "moduleA", "-broker", addr,
		"-sensor", "acc1:accelerometer:20", "-telemetry", neuronTel)
	start(neuronBin, "-id", "moduleB", "-broker", addr,
		"-actuator", "light")

	// Give the neurons a moment to connect, then deploy and inspect.
	deadline := time.Now().Add(30 * time.Second)
	var out []byte
	for {
		cmd := exec.Command(mgmtBin, "-broker", addr, "-settle", "1s",
			"modules", "deploy", "examples/recipes/monitoring.json", "streams")
		out, err = cmd.CombinedOutput()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mgmt deploy failed: %v\n%s", err, out)
		}
		time.Sleep(500 * time.Millisecond)
	}
	text := string(out)
	for _, want := range []string{
		"moduleA", "moduleB", // module listing
		"all subtasks running", // deployment confirmed
		"demo/alerts",          // stream registry
		"monitoring/sense",     // assignment echo
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("mgmt output missing %q:\n%s", want, text)
		}
	}
	// Placement: the sense task must be on moduleA (sensor host), the
	// alert actuation on moduleB (actuator host).
	if !strings.Contains(text, "monitoring/sense") || !assignedTo(text, "monitoring/sense", "moduleA") {
		t.Fatalf("sense not on moduleA:\n%s", text)
	}
	if !assignedTo(text, "monitoring/alert", "moduleB") {
		t.Fatalf("alert not on moduleB:\n%s", text)
	}

	// Both daemons must serve parseable Prometheus metrics over HTTP.
	scrapeMetrics(t, brokerTel, "ifot_broker_uptime_seconds", "ifot_broker_messages_received_total")
	scrapeMetrics(t, neuronTel, "ifot_module_tasks_running", "ifot_client_publish_total")

	// The broker must expose Mosquitto-style retained uptime under $SYS.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sysClient, err := mqttclient.Connect(conn, mqttclient.NewOptions("e2e-sys-probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer sysClient.Close()
	uptime := make(chan mqttclient.Message, 4)
	if _, err := sysClient.Subscribe("$SYS/broker/uptime", wire.QoS0, func(m mqttclient.Message) {
		select {
		case uptime <- m:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-uptime:
		if !strings.HasSuffix(strings.TrimSpace(string(m.Payload)), "seconds") {
			t.Fatalf("$SYS/broker/uptime payload = %q, want \"N seconds\"", m.Payload)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no $SYS/broker/uptime message")
	}
}

// scrapeMetrics pulls /metrics from a daemon and checks it is valid
// Prometheus text exposition containing the wanted series.
func scrapeMetrics(t *testing.T, addr string, want ...string) {
	t.Helper()
	var body string
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			data, rerr := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
					t.Fatalf("%s /metrics Content-Type = %q", addr, ct)
				}
				body = string(data)
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("scraping %s: %v", addr, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	for _, name := range want {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Fatalf("%s /metrics missing %q:\n%s", addr, name, body)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s /metrics line not `series value`: %q", addr, line)
		}
	}
}

func assignedTo(output, subtask, module string) bool {
	for _, line := range strings.Split(output, "\n") {
		if strings.Contains(line, subtask) && strings.Contains(line, "-> "+module) {
			return true
		}
	}
	return false
}

func waitForPort(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			_ = conn.Close()
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("broker never listened on %s", addr)
}
