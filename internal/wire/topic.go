package wire

import (
	"fmt"
	"strings"
)

// Topic length limit enforced by this implementation (the spec allows up to
// 65535 bytes; we cap lower for sanity).
const maxTopicLength = 8192

// ValidateTopicName checks a PUBLISH topic name: non-empty, no wildcards,
// no NUL characters.
func ValidateTopicName(topic string) error {
	if err := validateTopicCommon(topic); err != nil {
		return err
	}
	if strings.ContainsAny(topic, "+#") {
		return fmt.Errorf("%w: topic name %q contains wildcard", ErrInvalidTopic, topic)
	}
	return nil
}

// ValidateTopicFilter checks a SUBSCRIBE topic filter: non-empty, no NUL,
// and wildcards only in legal positions — `+` must occupy a whole level, `#`
// must occupy the final level.
func ValidateTopicFilter(filter string) error {
	if err := validateTopicCommon(filter); err != nil {
		return err
	}
	levels := strings.Split(filter, "/")
	for i, level := range levels {
		switch {
		case strings.Contains(level, "#"):
			if level != "#" {
				return fmt.Errorf("%w: %q: '#' must occupy an entire level", ErrInvalidTopic, filter)
			}
			if i != len(levels)-1 {
				return fmt.Errorf("%w: %q: '#' must be the last level", ErrInvalidTopic, filter)
			}
		case strings.Contains(level, "+"):
			if level != "+" {
				return fmt.Errorf("%w: %q: '+' must occupy an entire level", ErrInvalidTopic, filter)
			}
		}
	}
	return nil
}

func validateTopicCommon(topic string) error {
	if topic == "" {
		return fmt.Errorf("%w: empty topic", ErrInvalidTopic)
	}
	if len(topic) > maxTopicLength {
		return fmt.Errorf("%w: topic longer than %d bytes", ErrInvalidTopic, maxTopicLength)
	}
	if strings.ContainsRune(topic, 0) {
		return fmt.Errorf("%w: topic contains NUL", ErrInvalidTopic)
	}
	return nil
}

// MatchTopic reports whether a topic name matches a topic filter under MQTT
// wildcard semantics. Both arguments are assumed valid. Per spec 4.7.2,
// topics beginning with '$' are not matched by filters starting with a
// wildcard. It walks both strings level by level and allocates nothing.
func MatchTopic(filter, topic string) bool {
	if strings.HasPrefix(topic, "$") && (strings.HasPrefix(filter, "+") || strings.HasPrefix(filter, "#")) {
		return false
	}
	for {
		f, frest, fmore := strings.Cut(filter, "/")
		if f == "#" {
			return true
		}
		t, trest, tmore := strings.Cut(topic, "/")
		if f != "+" && f != t {
			return false
		}
		if !tmore {
			// Topic exhausted: the filter must be too, or continue with
			// '#', which matches the parent level ("a/#" matches "a").
			return !fmore || frest == "#" || strings.HasPrefix(frest, "#/")
		}
		if !fmore {
			return false
		}
		filter, topic = frest, trest
	}
}
