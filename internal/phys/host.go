package phys

import (
	"fmt"

	"wow/internal/sim"
)

// Host is a physical machine: it owns UDP sockets, a CPU with a finite
// packet-processing rate, and an uplink with finite bandwidth. The paper's
// PlanetLab router nodes are modelled as hosts with high LoadFactor, which
// throttles multi-hop overlay paths exactly as observed in §V-B.
type Host struct {
	net   *Network
	Name  string
	Site  *Site
	realm *Realm
	// uid is the host's network-wide creation index (1-based): unique
	// across all realms, unlike ip, which repeats behind every NAT. Stream
	// connection IDs are qualified by it.
	uid uint32
	ip  IP
	cfg HostConfig
	up  bool

	socks     map[wirePortKey]*UDPSock
	nextPorts map[uint8]uint16
	streamsSt *streamPeer

	txBusyUntil  sim.Time // uplink serialization
	cpuBusyUntil sim.Time // receive-path CPU serialization

	// shard/sim locate the host on the network's engine: all of the
	// host's events run on shard's Simulator.
	shard int
	sim   *sim.Simulator
	// nextConnID is the host-local half of the stream connection IDs it
	// dials (a network-global counter would race across shards).
	nextConnID uint64
}

// wirePortKey namespaces ports by wire protocol, as real hosts do: UDP
// port 5000 and TCP port 5000 are independent.
type wirePortKey struct {
	proto uint8
	port  uint16
}

// IP returns the host's address in its realm.
func (h *Host) IP() IP { return h.ip }

// Realm returns the address realm the host lives in.
func (h *Host) Realm() *Realm { return h.realm }

// Network returns the owning network.
func (h *Host) Network() *Network { return h.net }

// Sim returns the simulator driving this host's events: its shard of the
// network's engine. Protocol stacks schedule all their timers through it,
// which is what keeps a node's entire state machine on its own shard.
func (h *Host) Sim() *sim.Simulator { return h.sim }

// Shard reports the engine shard owning this host's events.
func (h *Host) Shard() int { return h.shard }

// allocConnID issues a stream connection ID from the host's network-wide
// uid and a host-local counter. That is shard-safe (no global counter to
// race on) and realm-proof: private-realm hosts reuse the same RFC1918
// addresses behind every NAT, so an IP-derived ID would collide across
// realms, but the uid is unique over the whole network regardless of
// realm.
func (h *Host) allocConnID() uint64 {
	h.nextConnID++
	return uint64(h.uid)<<32 | (h.nextConnID & 0xffffffff)
}

// Up reports whether the host is powered on.
func (h *Host) Up() bool { return h.up }

// SetUp powers the host on or off. Packets to a downed host are lost;
// sockets survive power cycling (the owning process is assumed restarted by
// higher layers).
func (h *Host) SetUp(up bool) { h.up = up }

// Config returns the host's performance model.
func (h *Host) Config() HostConfig { return h.cfg }

// SetLoadFactor changes the host's background-load multiplier, modelling
// load spikes on shared infrastructure.
func (h *Host) SetLoadFactor(f float64) {
	if f < 1 {
		f = 1
	}
	h.cfg.LoadFactor = f
}

// String renders "name(ip@site)".
func (h *Host) String() string {
	return fmt.Sprintf("%s(%s@%s)", h.Name, h.ip, h.Site.Name)
}

// receive runs the destination-side pipeline: CPU service-time queueing
// with overload drops, then delivery to the bound socket.
func (h *Host) receive(p *Packet) {
	now := h.sim.Now()
	if !h.up {
		h.net.drop(h.shard, "lost.hostdown", p)
		return
	}
	svc := sim.Duration(float64(h.cfg.ServiceTime) * h.cfg.LoadFactor)
	start := now
	if h.cpuBusyUntil > start {
		start = h.cpuBusyUntil
	}
	if start.Sub(now) > h.cfg.QueueLimit {
		h.net.drop(h.shard, "lost.overload", p)
		return
	}
	done := start.Add(svc)
	h.cpuBusyUntil = done
	h.sim.AtArg(done, finishReceive, p)
}

// finishReceive is the CPU-service-done callback: package-level so AtArg
// schedules it without a closure allocation per packet. The destination
// host rides in the packet (set by Network.send). The packet returns to
// the pool when the socket's handler returns, so handlers must not retain
// it (see Packet).
func finishReceive(a any) {
	p := a.(*Packet)
	h := p.dest
	if !h.up {
		h.net.drop(h.shard, "lost.hostdown", p)
		return
	}
	sock, ok := h.socks[wirePortKey{p.Proto, p.Dst.Port}]
	if !ok || sock.closed {
		h.net.drop(h.shard, "lost.noport", p)
		return
	}
	h.net.deliveredSh[h.shard].Inc(1)
	if sock.OnRecv != nil {
		sock.OnRecv(p)
	}
	h.net.releasePacket(h.shard, p)
}

// UDPSock is a bound wire socket on a host. Despite the name it serves
// both wire namespaces: datagram sockets (WireUDP) and the segment
// endpoints underneath Streams (WireTCP).
type UDPSock struct {
	host   *Host
	proto  uint8
	port   uint16
	closed bool
	// OnRecv is invoked for every datagram delivered to the socket, with
	// Src reflecting whatever translations NATs applied en route — the
	// address a reply should target.
	OnRecv func(p *Packet)
}

// ErrPortInUse is returned when binding an already-bound port.
var ErrPortInUse = fmt.Errorf("phys: port already bound")

// Listen binds a UDP socket on the given port. Port 0 picks an ephemeral
// port.
func (h *Host) Listen(port uint16) (*UDPSock, error) {
	return h.listenWire(WireUDP, port)
}

// listenWire binds a socket in the given wire namespace.
func (h *Host) listenWire(proto uint8, port uint16) (*UDPSock, error) {
	if port == 0 {
		for {
			port = h.nextPorts[proto]
			if port == 0 {
				port = 32768
			}
			h.nextPorts[proto] = port + 1
			if _, taken := h.socks[wirePortKey{proto, port}]; !taken {
				break
			}
		}
	} else if _, taken := h.socks[wirePortKey{proto, port}]; taken {
		return nil, fmt.Errorf("%w: %d/%d on %s", ErrPortInUse, port, proto, h.Name)
	}
	s := &UDPSock{host: h, proto: proto, port: port}
	h.socks[wirePortKey{proto, port}] = s
	return s, nil
}

// Port returns the bound port.
func (s *UDPSock) Port() uint16 { return s.port }

// Host returns the owning host.
func (s *UDPSock) Host() *Host { return s.host }

// LocalEndpoint returns the socket's endpoint as seen inside its realm
// (private address when behind NAT).
func (s *UDPSock) LocalEndpoint() Endpoint {
	return Endpoint{IP: s.host.ip, Port: s.port}
}

// Send transmits a datagram of the given size to dst. Delivery (or loss)
// is scheduled on the simulator; Send never blocks.
func (s *UDPSock) Send(dst Endpoint, size int, payload any) {
	if s.closed || !s.host.up {
		return
	}
	p := s.host.net.acquirePacket(s.host.shard)
	p.Src, p.Dst, p.Proto, p.Size, p.Payload = s.LocalEndpoint(), dst, s.proto, size, payload
	s.host.net.send(s.host, p)
}

// Close unbinds the socket. Packets in flight to it are dropped on arrival.
func (s *UDPSock) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.host.socks, wirePortKey{s.proto, s.port})
}
