// Package bridge federates MQTT brokers: selected topic patterns are
// forwarded between a local and a remote broker, mirroring Mosquitto's
// bridge connections. Bridging lets one IFoT area's flows be selectively
// shared with another area without a global broker — the scalability
// direction the paper's future work points at.
package bridge

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Direction selects which way a bridged topic pattern flows.
type Direction int

// Bridge directions.
const (
	// Out forwards local publications to the remote broker.
	Out Direction = iota + 1
	// In forwards remote publications to the local broker.
	In
)

// Route is one bridged topic pattern.
type Route struct {
	// Filter is the MQTT topic filter to bridge.
	Filter string
	// Direction selects the flow. A pattern must not be bridged in both
	// directions (that would loop); Config validation rejects
	// overlapping in/out filters.
	Direction Direction
	// QoS is the subscription QoS on the source side.
	QoS wire.QoS
}

// Config configures a Bridge between a local and a remote broker.
type Config struct {
	// Name identifies the bridge (client IDs derive from it).
	Name string
	// DialLocal/DialRemote open transports to the two brokers.
	DialLocal  func() (net.Conn, error)
	DialRemote func() (net.Conn, error)
	// Routes are the bridged patterns.
	Routes []Route
}

// Errors returned by bridge validation.
var (
	ErrLoop   = errors.New("bridge: filter bridged in both directions")
	ErrConfig = errors.New("bridge: invalid config")
)

func (c Config) validate() error {
	if c.Name == "" || c.DialLocal == nil || c.DialRemote == nil {
		return fmt.Errorf("%w: name and both dialers are required", ErrConfig)
	}
	if len(c.Routes) == 0 {
		return fmt.Errorf("%w: at least one route", ErrConfig)
	}
	seen := make(map[string]Direction, len(c.Routes))
	for _, r := range c.Routes {
		if err := wire.ValidateTopicFilter(r.Filter); err != nil {
			return err
		}
		if r.Direction != Out && r.Direction != In {
			return fmt.Errorf("%w: route %q has no direction", ErrConfig, r.Filter)
		}
		if prev, dup := seen[r.Filter]; dup && prev != r.Direction {
			return fmt.Errorf("%w: %q", ErrLoop, r.Filter)
		}
		seen[r.Filter] = r.Direction
	}
	return nil
}

// Bridge forwards selected topics between two brokers. Create with
// NewBridge, stop with Close.
type Bridge struct {
	cfg    Config
	local  *mqttclient.Client
	remote *mqttclient.Client

	mu        sync.Mutex
	closed    bool
	forwarded int64
}

// NewBridge connects to both brokers and installs the routes.
func NewBridge(cfg Config) (*Bridge, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	localConn, err := cfg.DialLocal()
	if err != nil {
		return nil, fmt.Errorf("bridge: %s dial local: %w", cfg.Name, err)
	}
	local, err := mqttclient.Connect(localConn, mqttclient.NewOptions(cfg.Name+"-local"))
	if err != nil {
		_ = localConn.Close()
		return nil, fmt.Errorf("bridge: %s connect local: %w", cfg.Name, err)
	}
	remoteConn, err := cfg.DialRemote()
	if err != nil {
		_ = local.Close()
		return nil, fmt.Errorf("bridge: %s dial remote: %w", cfg.Name, err)
	}
	remote, err := mqttclient.Connect(remoteConn, mqttclient.NewOptions(cfg.Name+"-remote"))
	if err != nil {
		_ = local.Close()
		_ = remoteConn.Close()
		return nil, fmt.Errorf("bridge: %s connect remote: %w", cfg.Name, err)
	}

	b := &Bridge{cfg: cfg, local: local, remote: remote}
	for _, route := range cfg.Routes {
		src, dst := local, remote
		if route.Direction == In {
			src, dst = remote, local
		}
		dst, route := dst, route
		if _, err := src.Subscribe(route.Filter, route.QoS, func(m mqttclient.Message) {
			if m.Retain {
				// Retained replays would re-propagate stale state on
				// every reconnect; forward only live traffic.
				return
			}
			if err := dst.Publish(m.Topic, m.Payload, route.QoS, false); err == nil {
				b.mu.Lock()
				b.forwarded++
				b.mu.Unlock()
			}
		}); err != nil {
			_ = b.Close()
			return nil, fmt.Errorf("bridge: %s subscribe %s: %w", cfg.Name, route.Filter, err)
		}
	}
	return b, nil
}

// Forwarded reports the number of messages relayed so far.
func (b *Bridge) Forwarded() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.forwarded
}

// Close disconnects both ends.
func (b *Bridge) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	if b.local != nil {
		_ = b.local.Disconnect()
	}
	if b.remote != nil {
		_ = b.remote.Disconnect()
	}
	return nil
}
