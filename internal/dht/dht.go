// Package dht implements a distributed hash table over the Brunet
// structured ring — the direction the paper's §VI points at ("approaches
// for decentralized resource discovery, scheduling and data management
// that are suitable for large-scale systems") and the mechanism the IPOP
// lineage later adopted for virtual-IP and name resolution.
//
// Keys hash to ring addresses; the node nearest a key's address owns it
// and replicates each entry to its structured-near neighbors, so lookups
// keep succeeding when owners crash or the ring churns. Values are sets of
// strings with per-member TTLs: Append-heavy workloads (service
// advertisement) and read workloads (discovery) share one primitive.
package dht

import (
	"fmt"
	"slices"

	"wow/internal/brunet"
	"wow/internal/metrics"
	"wow/internal/sim"
)

// Proto is the overlay protocol label for DHT traffic.
const Proto = "dht"

// KeyAddr maps a key to its owner ring address.
func KeyAddr(key string) brunet.Addr {
	return brunet.AddrFromString("wow-dht:" + key)
}

// wire messages (routed as brunet.AppData payloads).
type putReq struct {
	Key    string
	Member string
	TTL    sim.Duration
	Token  uint64
	From   brunet.Addr
	// Replica marks owner-to-neighbor replication traffic, which must
	// not be re-replicated.
	Replica bool
}
type putRsp struct {
	Token uint64
	OK    bool
}
type getReq struct {
	Key   string
	Token uint64
	From  brunet.Addr
}
type getRsp struct {
	Token   uint64
	Found   bool
	Members []string
}

type member struct {
	expires sim.Time
}

type entry struct {
	members map[string]member
}

type pending struct {
	timeout sim.Timer
	onPut   func(ok bool)
	onGet   func(members []string, found bool)
}

// Config tunes the DHT.
type Config struct {
	// Replicas is how many structured-near neighbors receive copies.
	Replicas int
	// RequestTimeout bounds each Put/Get.
	RequestTimeout sim.Duration
	// DefaultTTL applies when Append is called with ttl 0.
	DefaultTTL sim.Duration
}

func (c *Config) fillDefaults() {
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * sim.Second
	}
	if c.DefaultTTL == 0 {
		c.DefaultTTL = 10 * sim.Minute
	}
}

// DHT is one node's view of the table. Every participating overlay node
// runs one (routers included, if desired); storage lands wherever the
// ring dictates.
type DHT struct {
	node  *brunet.Node
	cfg   Config
	sim   *sim.Simulator
	store map[string]*entry

	nextToken uint64
	waiting   map[uint64]*pending

	// Stats counts DHT operations.
	Stats metrics.Counter
}

// New attaches a DHT to a running overlay node.
func New(node *brunet.Node, cfg Config) *DHT {
	cfg.fillDefaults()
	d := &DHT{
		node:    node,
		cfg:     cfg,
		sim:     node.Host().Sim(),
		store:   make(map[string]*entry),
		waiting: make(map[uint64]*pending),
	}
	node.RegisterProto(Proto, d.recv)
	return d
}

// Append adds a member to the set stored under key, with the given TTL
// (0 = DefaultTTL). cb (optional) reports acknowledgment by the owner.
func (d *DHT) Append(key, memberVal string, ttl sim.Duration, cb func(ok bool)) {
	if ttl == 0 {
		ttl = d.cfg.DefaultTTL
	}
	d.nextToken++
	token := d.nextToken
	p := &pending{onPut: cb}
	d.waiting[token] = p
	p.timeout = d.sim.After(d.cfg.RequestTimeout, func() { d.fail(token) })
	d.Stats.Inc("put.sent", 1)
	d.send(KeyAddr(key), 128+len(key)+len(memberVal), putReq{
		Key: key, Member: memberVal, TTL: ttl, Token: token, From: d.node.Addr(),
	})
}

// Get fetches the live member set stored under key. cb receives found =
// false on timeout or an empty table.
func (d *DHT) Get(key string, cb func(members []string, found bool)) {
	d.nextToken++
	token := d.nextToken
	p := &pending{onGet: cb}
	d.waiting[token] = p
	p.timeout = d.sim.After(d.cfg.RequestTimeout, func() { d.fail(token) })
	d.Stats.Inc("get.sent", 1)
	d.send(KeyAddr(key), 96+len(key), getReq{Key: key, Token: token, From: d.node.Addr()})
}

// Entries reports how many keys this node stores (owner or replica).
func (d *DHT) Entries() int { return len(d.store) }

func (d *DHT) fail(token uint64) {
	p, ok := d.waiting[token]
	if !ok {
		return
	}
	delete(d.waiting, token)
	d.Stats.Inc("timeouts", 1)
	if p.onPut != nil {
		p.onPut(false)
	}
	if p.onGet != nil {
		p.onGet(nil, false)
	}
}

func (d *DHT) send(dst brunet.Addr, size int, payload any) {
	// Nearest-mode delivery: whoever currently owns the key's ring
	// region answers — exactly how ownership survives churn.
	d.node.SendTo(dst, brunet.DeliverNearest, brunet.AppData{Proto: Proto, Size: size, Data: payload})
}

func (d *DHT) sendTo(dst brunet.Addr, size int, payload any) {
	d.node.SendTo(dst, brunet.DeliverExact, brunet.AppData{Proto: Proto, Size: size, Data: payload})
}

// recv dispatches DHT traffic delivered to this node.
func (d *DHT) recv(src brunet.Addr, data brunet.AppData) {
	switch m := data.Data.(type) {
	case putReq:
		d.Stats.Inc("put.served", 1)
		d.storePut(m)
		if !m.Replica {
			d.replicate(m)
			d.sendTo(m.From, 64, putRsp{Token: m.Token, OK: true})
		}
	case putRsp:
		if p, ok := d.waiting[m.Token]; ok {
			delete(d.waiting, m.Token)
			p.timeout.Cancel()
			if p.onPut != nil {
				p.onPut(m.OK)
			}
		}
	case getReq:
		d.Stats.Inc("get.served", 1)
		members := d.liveMembers(m.Key)
		d.sendTo(m.From, 96+16*len(members), getRsp{
			Token: m.Token, Found: len(members) > 0, Members: members,
		})
	case getRsp:
		if p, ok := d.waiting[m.Token]; ok {
			delete(d.waiting, m.Token)
			p.timeout.Cancel()
			if p.onGet != nil {
				p.onGet(m.Members, m.Found)
			}
		}
	default:
		d.Stats.Inc("unknown", 1)
	}
}

func (d *DHT) storePut(m putReq) {
	e, ok := d.store[m.Key]
	if !ok {
		e = &entry{members: make(map[string]member)}
		d.store[m.Key] = e
	}
	e.members[m.Member] = member{expires: d.sim.Now().Add(m.TTL)}
}

// replicate copies an accepted put to the ring neighbors nearest the
// key's address — exactly the nodes nearest-mode routing will select if
// the owner vanishes.
func (d *DHT) replicate(m putReq) {
	m.Replica = true
	ka := KeyAddr(m.Key)
	var nears []*brunet.Connection
	for _, c := range d.node.Connections() {
		if c.Has(brunet.StructuredNear) {
			nears = append(nears, c)
		}
	}
	sortByRingDist(nears, ka)
	for i, c := range nears {
		if i >= d.cfg.Replicas {
			break
		}
		d.Stats.Inc("replicated", 1)
		d.sendTo(c.Peer, 128+len(m.Key)+len(m.Member), m)
	}
}

// sortByRingDist orders conns by their peer's ring distance to ka, nearest
// first. Two peers tie only when mirrored around ka; the lower address
// goes first, so the order is total.
func sortByRingDist(conns []*brunet.Connection, ka brunet.Addr) {
	slices.SortFunc(conns, func(a, b *brunet.Connection) int {
		if c := ka.CmpRingDist(a.Peer, b.Peer); c != 0 {
			return c
		}
		return a.Peer.Cmp(b.Peer)
	})
}

// liveMembers returns unexpired members of a key, pruning the dead.
func (d *DHT) liveMembers(key string) []string {
	e, ok := d.store[key]
	if !ok {
		return nil
	}
	now := d.sim.Now()
	var out []string
	for v, m := range e.members {
		if m.expires <= now {
			delete(e.members, v)
			continue
		}
		out = append(out, v)
	}
	if len(e.members) == 0 {
		delete(d.store, key)
	}
	return out
}

// String renders a diagnostic summary.
func (d *DHT) String() string {
	return fmt.Sprintf("dht{node=%s keys=%d}", d.node.Addr(), len(d.store))
}
