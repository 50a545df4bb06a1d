package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuGroups are the cpu_share.* metrics: the repository's own packages,
// then what they lean on. Shares sum to 1.
var cpuGroups = []string{
	"broker", "wire", "mqttclient", "core", "flow", "feature", "ml", "store", "telemetry",
	"json", "net_syscall", "runtime_sched", "runtime_gc", "loadgen", "other",
}

const modulePrefix = "github.com/ifot-middleware/ifot/"

// prefixGroups maps a function-name prefix to its group; first match wins.
var prefixGroups = []struct{ prefix, group string }{
	{modulePrefix + "bench", "loadgen"},
	{"main.", "loadgen"},
	{"math/rand.", "loadgen"}, // only the generator draws random numbers
	{modulePrefix + "internal/broker.", "broker"},
	{modulePrefix + "internal/wire.", "wire"},
	{modulePrefix + "internal/mqttclient.", "mqttclient"},
	{modulePrefix + "internal/flow.", "flow"},
	{modulePrefix + "internal/feature.", "feature"},
	{modulePrefix + "internal/ml.", "ml"},
	{modulePrefix + "internal/store.", "store"},
	{modulePrefix + "internal/telemetry.", "telemetry"},
	// core, and the small packages only core calls (sensor codec,
	// recipe, placement, clock).
	{modulePrefix, "core"},
	{"encoding/", "json"},
	{"reflect.", "json"}, // nothing but encoding/json reflects on these paths
	{"strconv.", "json"},
	{"unicode/utf8.", "json"},
	{"syscall.", "net_syscall"},
	{"internal/runtime/syscall.", "net_syscall"},
	{"runtime/internal/syscall.", "net_syscall"},
	{"internal/syscall/", "net_syscall"},
	{"internal/poll.", "net_syscall"},
	{"net.", "net_syscall"},
	{"os.", "net_syscall"},
	{"runtime.netpoll", "net_syscall"},
	{"runtime.entersyscall", "net_syscall"},
	{"runtime.exitsyscall", "net_syscall"},
	{"runtime.reentersyscall", "net_syscall"},
	{"sync.", "runtime_sched"},
	{"sync/atomic.", "runtime_sched"},
	{"internal/runtime/atomic.", "runtime_sched"},
	{"time.", "runtime_sched"},
}

// gcWords mark a runtime function as memory management — allocation,
// collection, write barriers — rather than scheduling.
var gcWords = []string{
	"gc", "malloc", "alloc", "scan", "mark", "sweep", "scaveng", "span", "mheap", "mcache", "mcentral",
	"heapbits", "wbbuf", "newobject", "makeslice", "growslice", "memclr", "greyobject", "findobject",
	"nextfree", "typepointers", "barrier", "assist",
}

// cpuGroup names the group a profiled function belongs to.
func cpuGroup(fn string) string {
	for _, pg := range prefixGroups {
		if strings.HasPrefix(fn, pg.prefix) {
			return pg.group
		}
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		rest = strings.ToLower(rest)
		for _, w := range gcWords {
			if strings.Contains(rest, w) {
				return "runtime_gc"
			}
		}
		return "runtime_sched"
	}
	if strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime_sched"
	}
	return "other"
}

// profStack is one distinct call stack of a CPU profile, leaf first with
// inlined frames expanded, and the CPU time sampled on it.
type profStack struct {
	funcs []string
	ns    int64
}

// groupShares returns the share of sampled CPU time per group. A stack
// belongs to its leaf's group, except that a leaf in a general-purpose
// helper (sort, strings, bytes, …: group "other") is charged to the
// nearest caller that is not: the sort inside a kNN score is ml's time,
// the topic split inside a dispatch is mqttclient's.
func groupShares(stacks []profStack) (map[string]float64, error) {
	spent := map[string]float64{}
	total := 0.0
	for _, st := range stacks {
		group := "other"
		for _, fn := range st.funcs {
			if g := cpuGroup(fn); g != "other" {
				group = g
				break
			}
		}
		spent[group] += float64(st.ns)
		total += float64(st.ns)
	}
	if total == 0 {
		return nil, errors.New("CPU profile has no samples")
	}
	shares := make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		shares[g] = spent[g] / total
	}
	return shares, nil
}

// cpuShares groups the samples of a CPU profile file by layer.
func cpuShares(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	stacks, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return groupShares(stacks)
}

// The profile is read here, from the protobuf runtime/pprof wrote, rather
// than through `go tool pprof`: the wire format is fixed by profile.proto,
// the tool's text listings are not, and a run then starts no process.
// Field numbers below are profile.proto's.

var errProfile = errors.New("malformed profile")

// pbFields calls each for every field of one protobuf message: v holds a
// varint field's value, data a length-delimited field's bytes.
func pbFields(b []byte, each func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1, 5: // fixed 64 and 32: profile.proto has none that matter here
			skip := 8
			if key&7 == 5 {
				skip = 4
			}
			if len(b) < skip {
				return errProfile
			}
			b = b[skip:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProfile
		}
		if err := each(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints appends a repeated varint field's values: packed when data is
// set, a single value otherwise.
func pbVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// decodeProfile reads an uncompressed profile.proto message into its
// stacks, valued by the last sample type (cpu nanoseconds in a CPU
// profile).
func decodeProfile(raw []byte) ([]profStack, error) {
	type sample struct {
		locs []uint64
		ns   int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost inlined frame first
	funcName := map[uint64]uint64{}   // function id → string table index
	var strs []string
	err := pbFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			var values []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1: // Sample.location_id
					s.locs, err = pbVarints(s.locs, v, data)
				case 2: // Sample.value
					values, err = pbVarints(values, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.ns = int64(values[len(values)-1])
			}
			samples = append(samples, s)
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Profile.function
			var id, name uint64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]profStack, 0, len(samples))
	for _, s := range samples {
		st := profStack{ns: s.ns}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}
