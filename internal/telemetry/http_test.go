package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parsedSample is one line of Prometheus text exposition decoded by the
// test parser.
type parsedSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePrometheus is a strict-enough parser for the 0.0.4 text format: it
// fails the test on any malformed line, which is how the scrape tests
// assert the encoder emits valid exposition.
func parsePrometheus(t *testing.T, text string) []parsedSample {
	t.Helper()
	var out []parsedSample
	types := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					t.Fatalf("malformed TYPE line %q", line)
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		nameAndLabels, valStr := line[:sp], line[sp+1:]
		var value float64
		switch valStr {
		case "+Inf", "-Inf", "NaN":
			// accepted literal
		default:
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			value = v
		}
		s := parsedSample{name: nameAndLabels, labels: map[string]string{}, value: value}
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			if !strings.HasSuffix(nameAndLabels, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			s.name = nameAndLabels[:i]
			for _, pair := range splitLabelPairs(t, nameAndLabels[i+1:len(nameAndLabels)-1]) {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 || len(pair) < eq+3 || pair[eq+1] != '"' || pair[len(pair)-1] != '"' {
					t.Fatalf("malformed label pair %q in %q", pair, line)
				}
				s.labels[pair[:eq]] = pair[eq+2 : len(pair)-1]
			}
		}
		base := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if typ, ok := types[strings.TrimSuffix(s.name, suffix)]; ok && typ == "histogram" {
				base = strings.TrimSuffix(s.name, suffix)
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no preceding TYPE header", s.name)
		}
		out = append(out, s)
	}
	return out
}

// splitLabelPairs splits on commas not inside quoted values.
func splitLabelPairs(t *testing.T, s string) []string {
	t.Helper()
	var pairs []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, c := range s {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(c)
		case c == '\\' && inQuote:
			escaped = true
			cur.WriteRune(c)
		case c == '"':
			inQuote = !inQuote
			cur.WriteRune(c)
		case c == ',' && !inQuote:
			pairs = append(pairs, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(c)
		}
	}
	if inQuote {
		t.Fatalf("unterminated quote in label set %q", s)
	}
	if cur.Len() > 0 {
		pairs = append(pairs, cur.String())
	}
	return pairs
}

func TestHTTPMetricsScrape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ifot_broker_messages_received_total", "msgs", L("class", "publish")).Add(12)
	tr := NewTracer(nil, 8)
	tr.ObserveStage(TraceKey{Recipe: "r", TaskID: "t", Seq: 1}, "publish", "s0", tr.Now(), tr.Now())

	srv := httptest.NewServer(Handler(reg, tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parsePrometheus(t, string(body))
	found := false
	for _, s := range samples {
		if s.name == "ifot_broker_messages_received_total" && s.labels["class"] == "publish" && s.value == 12 {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrape did not surface the counter; got %+v", samples)
	}
}

func TestHTTPTracesJSON(t *testing.T) {
	tr := NewTracer(nil, 8)
	for i := 0; i < 3; i++ {
		tr.ObserveStage(TraceKey{Recipe: "r", Seq: uint32(i)}, "publish", "s", tr.Now(), tr.Now())
	}
	srv := httptest.NewServer(Handler(nil, tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/traces?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload struct {
		Traces     []Trace `json:"traces"`
		TotalSpans uint64  `json:"totalSpans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Traces) != 2 {
		t.Fatalf("traces = %d, want limit 2", len(payload.Traces))
	}
	if payload.TotalSpans != 3 {
		t.Fatalf("totalSpans = %d, want 3", payload.TotalSpans)
	}
	if payload.Traces[1].Key.Seq != 2 {
		t.Fatalf("limit should keep newest traces, got %+v", payload.Traces)
	}
}

func TestHTTPPprof(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
}

func TestStartServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ifot_up_total", "x").Inc()
	addr, shutdown, err := StartServer("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ifot_up_total 1") {
		t.Fatalf("metrics body = %q", body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still reachable after shutdown")
	}
}

func TestHTTPTracesBadLimit(t *testing.T) {
	tr := NewTracer(nil, 8)
	tr.ObserveStage(TraceKey{Recipe: "r"}, "publish", "s", tr.Now(), tr.Now())
	srv := httptest.NewServer(Handler(nil, tr))
	defer srv.Close()

	for _, lim := range []string{"-1", "abc", "1.5", ""} {
		url := srv.URL + "/traces?limit=" + lim
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusBadRequest
		if lim == "" {
			want = http.StatusOK // empty limit = unset = serve everything
		}
		if resp.StatusCode != want {
			t.Fatalf("GET %s status = %d, want %d", url, resp.StatusCode, want)
		}
	}
}

func TestHTTPFlows(t *testing.T) {
	tr := NewTracer(nil, 8)
	for i := 0; i < 4; i++ {
		tr.ObserveStage(TraceKey{Recipe: "r", Seq: uint32(i)}, "judge", "m",
			time.Unix(int64(i), 0), time.Unix(int64(i), int64(10*time.Millisecond)))
	}
	srv := httptest.NewServer(Handler(nil, tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/flows")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var sum FlowSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Flows != 4 || sum.Spans != 4 || len(sum.Stages) != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	st := sum.Stages[0]
	if st.Stage != "judge" || st.Count != 4 || st.P95Ms <= 0 || st.MaxMs < 10 {
		t.Fatalf("stage summary = %+v", st)
	}
}

func TestHTTPFlowsAbsentWithoutReporter(t *testing.T) {
	// A TraceSource that is not a FlowReporter must not register /flows.
	srv := httptest.NewServer(Handler(nil, bareSource{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/flows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/flows status = %d, want 404", resp.StatusCode)
	}
}

type bareSource struct{}

func (bareSource) Traces() []Trace    { return nil }
func (bareSource) Spans() []Span      { return nil }
func (bareSource) TotalSpans() uint64 { return 0 }

func TestHTTPEvents(t *testing.T) {
	l := NewEventLog(8)
	base := time.Unix(4000, 0)
	for i := 0; i < 5; i++ {
		l.Emit(Event{Time: base.Add(time.Duration(i) * time.Second), Kind: "k", Module: "m"})
	}
	srv := httptest.NewServer(Handler(nil, nil, l))
	defer srv.Close()

	var payload struct {
		Events      []Event `json:"events"`
		TotalEvents uint64  `json:"totalEvents"`
	}
	resp, err := http.Get(srv.URL + "/events?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Events) != 2 || payload.TotalEvents != 5 {
		t.Fatalf("events = %d totalEvents = %d, want 2/5", len(payload.Events), payload.TotalEvents)
	}
	// since accepts both unix seconds and RFC 3339.
	for _, since := range []string{"4002", base.Add(2 * time.Second).Format(time.RFC3339)} {
		resp, err := http.Get(srv.URL + "/events?since=" + since)
		if err != nil {
			t.Fatal(err)
		}
		var p struct {
			Events []Event `json:"events"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(p.Events) != 2 {
			t.Fatalf("since=%s returned %d events, want 2", since, len(p.Events))
		}
	}
}

func TestHTTPEventsBadQuery(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil, NewEventLog(8)))
	defer srv.Close()
	for _, q := range []string{"limit=-1", "limit=abc", "limit=1.5", "since=yesterday", "since=2026-13-99"} {
		resp, err := http.Get(srv.URL + "/events?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /events?%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

type fakeHealthSource struct{ snap HealthSnapshot }

func (f fakeHealthSource) HealthSnapshot() HealthSnapshot { return f.snap }

func TestHTTPHealth(t *testing.T) {
	snap := HealthSnapshot{
		Now: time.Unix(5000, 0), Healthy: 1, Suspect: 1,
		Modules: []ModuleHealth{
			{Module: "a", State: "healthy", MissedBeacons: 0},
			{Module: "b", State: "suspect", MissedBeacons: 4,
				Runtime: &RuntimeStats{Goroutines: 12}},
		},
	}
	srv := httptest.NewServer(Handler(nil, nil, NewEventLog(8), fakeHealthSource{snap}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got HealthSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Healthy != 1 || got.Suspect != 1 || len(got.Modules) != 2 {
		t.Fatalf("snapshot = %+v", got)
	}
	if got.Modules[1].State != "suspect" || got.Modules[1].Runtime == nil || got.Modules[1].Runtime.Goroutines != 12 {
		t.Fatalf("module b = %+v", got.Modules[1])
	}
}

func TestHTTPEventsHealthAbsentWithoutSources(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil))
	defer srv.Close()
	for _, path := range []string{"/events", "/health"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404 when no source attached", path, resp.StatusCode)
		}
	}
}
