package wire

import (
	"math/rand"
	"strings"
	"testing"
)

func TestValidateTopicName(t *testing.T) {
	tests := []struct {
		topic string
		ok    bool
	}{
		{"a", true},
		{"a/b/c", true},
		{"/leading", true},
		{"trailing/", true},
		{"with space", true},
		{"", false},
		{"a/+/b", false},
		{"a/#", false},
		{"nul\x00byte", false},
		{strings.Repeat("x", maxTopicLength+1), false},
	}
	for _, tt := range tests {
		err := ValidateTopicName(tt.topic)
		if (err == nil) != tt.ok {
			t.Errorf("ValidateTopicName(%q) err = %v, want ok=%v", tt.topic, err, tt.ok)
		}
	}
}

func TestValidateTopicFilter(t *testing.T) {
	tests := []struct {
		filter string
		ok     bool
	}{
		{"a", true},
		{"a/b", true},
		{"+", true},
		{"#", true},
		{"a/+/c", true},
		{"a/#", true},
		{"+/+/+", true},
		{"", false},
		{"a/b#", false},
		{"a/#/b", false},
		{"a+/b", false},
		{"a/+b", false},
		{"nul\x00", false},
	}
	for _, tt := range tests {
		err := ValidateTopicFilter(tt.filter)
		if (err == nil) != tt.ok {
			t.Errorf("ValidateTopicFilter(%q) err = %v, want ok=%v", tt.filter, err, tt.ok)
		}
	}
}

func TestMatchTopic(t *testing.T) {
	tests := []struct {
		filter, topic string
		want          bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b/d", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/b/d", false},
		{"a/+/c", "a/b/x/c", false},
		{"+", "a", true},
		{"+", "a/b", false},
		{"#", "a", true},
		{"#", "a/b/c", true},
		{"a/#", "a", true},
		{"a/#", "a/b", true},
		{"a/#", "a/b/c", true},
		{"a/#", "b", false},
		{"a/b", "a", false},
		{"a", "a/b", false},
		{"+/+", "a/b", true},
		{"+/+", "a", false},
		{"+/b/#", "a/b/c/d", true},
		// $-prefixed topics are not matched by leading wildcards.
		{"#", "$SYS/broker", false},
		{"+/broker", "$SYS/broker", false},
		{"$SYS/#", "$SYS/broker", true},
		// Empty levels are significant.
		{"a//c", "a//c", true},
		{"a/+/c", "a//c", true},
		{"a/", "a", false},
		{"a", "a/", false},
		{"a/+", "a/", true},
		{"a/#", "a/", true},
		{"+", "", true},
		{"", "", true},
		// '#' matches the parent level, but only directly below it.
		{"a/b/#", "a", false},
		{"a/#", "ab", false},
		// Malformed '#'-not-last filters keep the answer they always had:
		// everything from the '#' on is ignored.
		{"a/#/c", "a/x", true},
		{"a/#/c", "a", true},
		{"a/#b", "a", false},
	}
	for _, tt := range tests {
		if got := MatchTopic(tt.filter, tt.topic); got != tt.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", tt.filter, tt.topic, got, tt.want)
		}
	}
}

func TestMatchTopicExactAlwaysMatchesItself(t *testing.T) {
	for _, topic := range []string{"a", "a/b", "ifot/sensor/acc/1", "x/y/z/w"} {
		if !MatchTopic(topic, topic) {
			t.Errorf("MatchTopic(%q, %q) = false, want true", topic, topic)
		}
	}
}

// matchTopicOracle is the strings.Split matcher MatchTopic replaced, kept
// as the reference the split-free walk must agree with on every input.
func matchTopicOracle(filter, topic string) bool {
	if strings.HasPrefix(topic, "$") && (strings.HasPrefix(filter, "+") || strings.HasPrefix(filter, "#")) {
		return false
	}
	fl := strings.Split(filter, "/")
	tl := strings.Split(topic, "/")
	for i, f := range fl {
		if f == "#" {
			return true
		}
		if i >= len(tl) {
			return false
		}
		if f != "+" && f != tl[i] {
			return false
		}
	}
	return len(fl) == len(tl)
}

// randomTopicish draws a string from an alphabet small enough that filters
// and topics collide often: half the time whole levels joined by '/', half
// the time raw characters, so malformed filters are covered too.
func randomTopicish(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		levels := []string{"a", "b", "ab", "", "+", "#", "$SYS", "$"}
		parts := make([]string, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = levels[rng.Intn(len(levels))]
		}
		return strings.Join(parts, "/")
	}
	const alphabet = "ab/+#$"
	b := make([]byte, rng.Intn(7))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func TestMatchTopicAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	matched := 0
	for i := 0; i < 1_000_000; i++ {
		filter, topic := randomTopicish(rng), randomTopicish(rng)
		got, want := MatchTopic(filter, topic), matchTopicOracle(filter, topic)
		if got != want {
			t.Fatalf("MatchTopic(%q, %q) = %v, oracle says %v", filter, topic, got, want)
		}
		if got {
			matched++
		}
	}
	// Guard the generator: a sweep that never matches proves nothing.
	if matched < 50_000 {
		t.Fatalf("only %d of 1M random pairs matched", matched)
	}
}

func TestMatchTopicDoesNotAllocate(t *testing.T) {
	pairs := [][2]string{
		{"ifot/sensor/acc/1", "ifot/sensor/acc/1"},
		{"ifot/+/acc/+", "ifot/sensor/acc/1"},
		{"ifot/#", "ifot/sensor/acc/1"},
		{"ifot/actuator/#", "ifot/sensor/acc/1"},
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, p := range pairs {
			_ = MatchTopic(p[0], p[1])
		}
	})
	if allocs != 0 {
		t.Fatalf("MatchTopic allocates %.1f times over %d pairs, want 0", allocs, len(pairs))
	}
}
