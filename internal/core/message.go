// Package core implements the IFoT middleware itself: the neuron-module
// runtime hosting the paper's middleware classes (Publish/Subscribe,
// Learning/Judging/Managing, Sensor/Actuator integration), and the
// management node that splits recipes and assigns tasks (Fig. 4, Fig. 6).
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// Control-plane topic layout. Application data flows on recipe-defined
// topics; the middleware coordinates on the ifot/ctrl hierarchy.
const (
	// TopicAnnounce carries module presence beacons (retained).
	TopicAnnounce = "ifot/ctrl/announce"
	// TopicLeavePrefix + moduleID carries departure notices (wills).
	TopicLeavePrefix = "ifot/ctrl/leave/"
	// TopicDesiredPrefix + moduleID carries the module's desired set
	// (retained): every subtask the manager wants it to run.
	TopicDesiredPrefix = "ifot/ctrl/desired/"
	// TopicStatusPrefix + moduleID carries task status reports.
	TopicStatusPrefix = "ifot/ctrl/status/"
	// TopicDiscoverQuery carries stream-discovery requests.
	TopicDiscoverQuery = "ifot/ctrl/discover/query"
	// TopicDiscoverReplyPrefix + requestID carries discovery replies.
	TopicDiscoverReplyPrefix = "ifot/ctrl/discover/reply/"
	// TopicMixPrefix + recipe/taskID carries MIX weight exchanges.
	TopicMixPrefix = "ifot/mix/"
	// TopicTracePrefix + moduleID carries batched completed spans
	// (telemetry.SpanBatch JSON, QoS 0) toward the management node's
	// cluster trace collector, which subscribes TopicTracePrefix + "#".
	TopicTracePrefix = "ifot/ctrl/trace/"
	// TopicEventsPrefix + moduleID carries batched structured events
	// (telemetry.EventBatch JSON, QoS 0) toward the management node's
	// cluster event view, which subscribes TopicEventsPrefix + "#".
	TopicEventsPrefix = "ifot/ctrl/events/"
	// TopicDrainPrefix + moduleID carries graceful-drain requests toward
	// the management node (which subscribes TopicDrainPrefix + "+").
	TopicDrainPrefix = "ifot/ctrl/drain/"
	// TopicCkptPrefix + escaped subtask name carries retained checkpoint
	// handoff blobs (see CheckpointTopic).
	TopicCkptPrefix = "ifot/ctrl/ckpt/"
)

// ckptTopicEscaper rewrites MQTT wildcard characters out of subtask
// names: sharded subtasks are named recipe/task#shard and "#"/"+" are
// topic wildcards, illegal in publish topics.
var ckptTopicEscaper = strings.NewReplacer("#", ".", "+", "'")

// CheckpointTopic is the retained-checkpoint handoff topic for a subtask
// name (wildcard characters escaped).
func CheckpointTopic(subtaskName string) string {
	return TopicCkptPrefix + ckptTopicEscaper.Replace(subtaskName)
}

// Errors returned by the codec.
var (
	ErrBadBatch      = errors.New("core: malformed batch")
	ErrBadMessage    = errors.New("core: malformed control message")
	ErrBatchTooLarge = errors.New("core: batch exceeds wire format capacity")
)

// MaxBatchSamples is the largest batch EncodeBatch can represent: the wire
// format carries the sample count in a 2-byte big-endian prefix.
const MaxBatchSamples = 1<<16 - 1

// Announce is a module presence beacon. Runtime, when present, carries
// the sender's process resource sample (heap, goroutines, GC pause) so
// the management node's HealthMonitor can expose per-node runtime gauges;
// beacons from older modules simply omit it.
type Announce struct {
	ModuleID     string                  `json:"moduleId"`
	Capabilities []string                `json:"capabilities,omitempty"`
	CapacityOps  float64                 `json:"capacityOps"`
	RunningTasks []string                `json:"runningTasks,omitempty"`
	SentAt       time.Time               `json:"sentAt"`
	Runtime      *telemetry.RuntimeStats `json:"runtime,omitempty"`
	// TaskEpochs carries the assignment epoch of every manager-assigned
	// running task, so the manager can spot stale instances on a module
	// returning from a partition.
	TaskEpochs map[string]uint64 `json:"taskEpochs,omitempty"`
	// Fenced reports that the module has self-fenced its outputs
	// (announce beacons went unacknowledged past Config.FenceAfter) and
	// is waiting for a desired set before publishing again.
	Fenced bool `json:"fenced,omitempty"`
}

// Desired is the manager's one control message to a module, published
// retained on TopicDesiredPrefix+ModuleID and derived from the deployment
// table: the complete set of subtasks the module should run. The module
// starts what is missing, stops what is absent and adopts the epochs of
// the rest, so a set received late, twice or after a reconnect converges
// the same way.
type Desired struct {
	ModuleID string `json:"moduleId"`
	// Recipes carries each recipe named by Tasks once, by name, so the
	// module resolves task references without a second round trip.
	Recipes map[string]recipe.Recipe `json:"recipes,omitempty"`
	Tasks   []DesiredTask            `json:"tasks,omitempty"`
	// Deployed maps every recipe in the deployment table to its version.
	// A manager-assigned task absent from Tasks whose recipe version is
	// deployed was moved to another module; any other was undeployed.
	Deployed map[string]int `json:"deployed,omitempty"`
	// Scope lists the only recipes the set may undeploy: every recipe the
	// manager's table has held since its journal began (or, without one,
	// since the process started). A module keeps any other manager-
	// assigned task — another manager assigned it.
	Scope []string `json:"scope,omitempty"`
	// Draining is set while the module drains: its moved tasks stop with
	// a final checkpoint handed off to their new hosts, not fenced.
	Draining bool      `json:"draining,omitempty"`
	SentAt   time.Time `json:"sentAt"`
}

// DesiredTask is one subtask of a desired set at its assignment epoch:
// 1 at deploy, bumped on every failover or drain move, and used to tell
// a stale instance from the current one.
type DesiredTask struct {
	SubTask recipe.SubTask `json:"subTask"`
	Epoch   uint64         `json:"epoch"`
}

// DrainRequest asks the management node to move every subtask off the
// sending module (graceful leave: drain, then Close).
type DrainRequest struct {
	ModuleID string    `json:"moduleId"`
	SentAt   time.Time `json:"sentAt"`
}

// StatusKind enumerates task status transitions.
type StatusKind string

// Status kinds.
const (
	StatusStarted StatusKind = "started"
	StatusStopped StatusKind = "stopped"
	StatusFailed  StatusKind = "failed"
)

// Status reports a task lifecycle event from a module.
type Status struct {
	ModuleID    string     `json:"moduleId"`
	SubTaskName string     `json:"subTaskName"`
	Kind        StatusKind `json:"kind"`
	Detail      string     `json:"detail,omitempty"`
	At          time.Time  `json:"at"`
}

// StreamInfo describes one discoverable stream.
type StreamInfo struct {
	Topic    string `json:"topic"`
	Recipe   string `json:"recipe,omitempty"`
	TaskID   string `json:"taskId,omitempty"`
	Kind     string `json:"kind,omitempty"`
	ModuleID string `json:"moduleId,omitempty"`
}

// DiscoverQuery asks the management node for streams matching an MQTT
// topic filter.
type DiscoverQuery struct {
	RequestID string `json:"requestId"`
	Filter    string `json:"filter"`
}

// DiscoverReply answers a DiscoverQuery.
type DiscoverReply struct {
	RequestID string       `json:"requestId"`
	Streams   []StreamInfo `json:"streams"`
}

// Decision is the JSON payload emitted by analysis classes (Judging class
// output): classification labels, anomaly scores, cluster assignments,
// regression estimates.
type Decision struct {
	Recipe string  `json:"recipe"`
	TaskID string  `json:"taskId"`
	Kind   string  `json:"kind"`
	Label  string  `json:"label,omitempty"`
	Score  float64 `json:"score"`
	// Seq ties the decision back to the joined input batch.
	Seq uint32 `json:"seq"`
	// SensedAt is the earliest sensing timestamp in the input batch,
	// preserved so downstream stages can measure end-to-end latency.
	SensedAt time.Time `json:"sensedAt"`
	At       time.Time `json:"at"`
	// Trace carries the originating flow's trace context across the
	// process boundary to Actuate (and any other JSON consumer). Absent
	// on untraced deployments.
	Trace *TraceContext `json:"trace,omitempty"`
}

// TrainEvent is emitted by the Learning class after each model update.
type TrainEvent struct {
	Recipe   string    `json:"recipe"`
	TaskID   string    `json:"taskId"`
	Seq      uint32    `json:"seq"`
	SensedAt time.Time `json:"sensedAt"`
	At       time.Time `json:"at"`
	// Examples counts total training examples absorbed so far.
	Examples int64 `json:"examples"`
	// Trace carries the originating flow's trace context (absent on
	// untraced deployments).
	Trace *TraceContext `json:"trace,omitempty"`
}

// EncodeJSON marshals a control message; it panics only on programmer
// error (unmarshalable types), so callers may ignore the error for the
// message types in this package.
func EncodeJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("core: marshal %T: %v", v, err))
	}
	return data
}

// DecodeJSON unmarshals a control message.
func DecodeJSON(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return nil
}

// TraceContext is the flow identity a traced batch carries across process
// boundaries: the trace key, the origin sensing instant (stamped by the
// origin module's clock), that module's ID (so a collector can apply the
// right skew offset to the start instant), and a hop count incremented at
// every re-publish. It rides the wire as an optional binary trailer after
// the batch samples (see EncodeBatchTraced) and as an optional JSON field
// on Decision/TrainEvent.
// Every field is a plain tagged value on purpose: encoding/json re-scans
// and compacts the output of any json.Marshaler byte by byte, which costs
// more than the rest of a traced Decision combined, while plain fields go
// through the fast reflect struct encoder. The origin instant is therefore
// integer unix-nanos rather than a time.Time (whose RFC 3339 Marshaler
// would reintroduce the same tax).
type TraceContext struct {
	Key            telemetry.TraceKey `json:"key"`
	OriginUnixNano int64              `json:"originUnixNano,omitempty"`
	OriginModule   string             `json:"originModule,omitempty"`
	Hops           uint8              `json:"hops"`
}

// Origin reports the origin sensing instant (zero when unset).
func (tc *TraceContext) Origin() time.Time {
	if tc == nil || tc.OriginUnixNano == 0 {
		return time.Time{}
	}
	return time.Unix(0, tc.OriginUnixNano)
}

// Next returns a copy with the hop count incremented (saturating).
func (tc TraceContext) Next() TraceContext {
	if tc.Hops < 255 {
		tc.Hops++
	}
	return tc
}

// Trace-trailer wire constants. The trailer is appended after the last
// sample: magic, version, hops, seq (4B BE), origin unix-nanos (8B BE),
// then three length-prefixed strings (recipe, taskID, origin module).
const (
	traceTrailerMagic   = 0xC7
	traceTrailerVersion = 1
	traceTrailerFixed   = 1 + 1 + 1 + 4 + 8
	maxTraceString      = 255
)

// checkTraceTrailer reports whether tc fits the trailer: each of its
// three strings carries a one-byte length.
func checkTraceTrailer(tc *TraceContext) error {
	for _, s := range [3]string{tc.Key.Recipe, tc.Key.TaskID, tc.OriginModule} {
		if len(s) > maxTraceString {
			return fmt.Errorf("%w: trace string %q exceeds %d bytes", ErrBatchTooLarge, s[:16]+"…", maxTraceString)
		}
	}
	return nil
}

// appendTraceTrailer appends tc's wire encoding to out; tc has passed
// checkTraceTrailer.
func appendTraceTrailer(out []byte, tc *TraceContext) []byte {
	out = append(out, traceTrailerMagic, traceTrailerVersion, tc.Hops)
	out = binary.BigEndian.AppendUint32(out, tc.Key.Seq)
	out = binary.BigEndian.AppendUint64(out, uint64(tc.OriginUnixNano))
	for _, s := range [3]string{tc.Key.Recipe, tc.Key.TaskID, tc.OriginModule} {
		out = append(out, byte(len(s)))
		out = append(out, s...)
	}
	return out
}

// decodeTraceTrailer parses a trailer occupying exactly data.
func decodeTraceTrailer(data []byte) (*TraceContext, error) {
	if len(data) < traceTrailerFixed || data[0] != traceTrailerMagic || data[1] != traceTrailerVersion {
		return nil, fmt.Errorf("%w: bad trace trailer", ErrBadBatch)
	}
	tc := &TraceContext{Hops: data[2]}
	tc.Key.Seq = binary.BigEndian.Uint32(data[3:7])
	tc.OriginUnixNano = int64(binary.BigEndian.Uint64(data[7:15]))
	rest := data[traceTrailerFixed:]
	var strs [3]string
	for i := range strs {
		if len(rest) < 1 {
			return nil, fmt.Errorf("%w: truncated trace trailer", ErrBadBatch)
		}
		n := int(rest[0])
		if len(rest) < 1+n {
			return nil, fmt.Errorf("%w: truncated trace trailer", ErrBadBatch)
		}
		strs[i] = string(rest[1 : 1+n])
		rest = rest[1+n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after trace trailer", ErrBadBatch, len(rest))
	}
	tc.Key.Recipe, tc.Key.TaskID, tc.OriginModule = strs[0], strs[1], strs[2]
	return tc, nil
}

// EncodeBatch serializes a joined batch of samples: a 2-byte big-endian
// count followed by each sample's 32-byte encoding. Batches longer than
// MaxBatchSamples return ErrBatchTooLarge — silently truncating the uint16
// count would make DecodeBatch read a batch whose declared length disagrees
// with its payload.
func EncodeBatch(batch []sensor.Sample) ([]byte, error) {
	return EncodeBatchTraced(batch, nil)
}

// EncodeBatchTraced serializes a batch like EncodeBatch and, when tc is
// non-nil, appends its trace-context trailer. Decoders that predate the
// trailer reject such payloads, so producers only attach context when the
// deployment runs with tracing enabled; plain consumers of traced streams
// should use DecodeBatchTraced.
func EncodeBatchTraced(batch []sensor.Sample, tc *TraceContext) ([]byte, error) {
	out, err := AppendEncodeBatch(make([]byte, 0, 2+len(batch)*sensor.SampleSize+trailerCap(tc)), batch, tc)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendEncodeBatch appends the EncodeBatchTraced form of batch (traced
// when tc is non-nil) to dst. On error dst is returned unchanged.
func AppendEncodeBatch(dst []byte, batch []sensor.Sample, tc *TraceContext) ([]byte, error) {
	if len(batch) > MaxBatchSamples {
		return dst, fmt.Errorf("%w: %d samples > %d", ErrBatchTooLarge, len(batch), MaxBatchSamples)
	}
	if tc != nil {
		if err := checkTraceTrailer(tc); err != nil {
			return dst, err
		}
	}
	out := binary.BigEndian.AppendUint16(dst, uint16(len(batch)))
	for _, s := range batch {
		out = s.AppendEncode(out)
	}
	if tc != nil {
		out = appendTraceTrailer(out, tc)
	}
	return out, nil
}

func trailerCap(tc *TraceContext) int {
	if tc == nil {
		return 0
	}
	return traceTrailerFixed + 3 + len(tc.Key.Recipe) + len(tc.Key.TaskID) + len(tc.OriginModule)
}

// DecodeBatch parses an EncodeBatch payload. A valid trace-context
// trailer, if present, is accepted and discarded; any other trailing
// bytes are rejected as before.
func DecodeBatch(data []byte) ([]sensor.Sample, error) {
	batch, _, err := DecodeBatchTraced(data)
	return batch, err
}

// DecodeBatchTraced parses an EncodeBatch/EncodeBatchTraced payload,
// returning the trace context when the optional trailer is present (nil
// otherwise — absent context decodes exactly as the pre-trace format).
func DecodeBatchTraced(data []byte) ([]sensor.Sample, *TraceContext, error) {
	batch, tc, err := AppendDecodeBatch(nil, data)
	if err != nil {
		return nil, nil, err
	}
	if batch == nil {
		batch = []sensor.Sample{}
	}
	return batch, tc, nil
}

// AppendDecodeBatch parses an EncodeBatch/EncodeBatchTraced payload like
// DecodeBatchTraced, appending the samples to dst, so a caller that
// decodes into dst[:0] reuses its capacity. On error dst is returned
// unchanged.
func AppendDecodeBatch(dst []sensor.Sample, data []byte) ([]sensor.Sample, *TraceContext, error) {
	if len(data) < 2 {
		return dst, nil, ErrBadBatch
	}
	n := int(binary.BigEndian.Uint16(data))
	body := 2 + n*sensor.SampleSize
	if len(data) < body {
		return dst, nil, fmt.Errorf("%w: count %d but %d payload bytes", ErrBadBatch, n, len(data)-2)
	}
	var tc *TraceContext
	if len(data) > body {
		var err error
		if tc, err = decodeTraceTrailer(data[body:]); err != nil {
			return dst, nil, err
		}
	}
	out := slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		s, err := sensor.DecodeSample(data[2+i*sensor.SampleSize : 2+(i+1)*sensor.SampleSize])
		if err != nil {
			return dst, nil, err
		}
		out = append(out, s)
	}
	return out, tc, nil
}

// EarliestTimestamp returns the earliest sensing timestamp in a batch
// (zero time for an empty batch).
func EarliestTimestamp(batch []sensor.Sample) time.Time {
	var earliest time.Time
	for _, s := range batch {
		if earliest.IsZero() || s.Timestamp.Before(earliest) {
			earliest = s.Timestamp
		}
	}
	return earliest
}
