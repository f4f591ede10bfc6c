//go:build !packetdebug

package phys

// This file is the production packet pool. Build with -tags packetdebug to
// swap in pool_debug.go, which disables reuse and turns pool misuse
// (double release, use after release, cross-shard release) into panics.
//
// Free lists are per shard: a packet is acquired from and released to the
// executing shard's list, so pooling needs no locks under the parallel
// engine. A packet delivered across shards simply migrates lists — its
// sender's shard loses one pooled packet, the receiver's gains one.

// acquirePacket takes a packet from shard sh's free list, or allocates.
func (n *Network) acquirePacket(sh int) *Packet {
	p := n.freePktSh[sh]
	if p != nil {
		n.freePktSh[sh] = p.nextFree
		p.nextFree = nil
		return p
	}
	return &Packet{}
}

// releasePacket retires a packet to shard sh's free list once its delivery
// (or drop) callback has returned. Payload, dest, entry and src are
// cleared so the pool never pins payload objects, hosts or realms.
func (n *Network) releasePacket(sh int, p *Packet) {
	p.Payload = nil
	p.dest = nil
	p.entry = nil
	p.src = nil
	p.nextFree = n.freePktSh[sh]
	n.freePktSh[sh] = p
}

// checkPacketLive is a no-op in production builds; the debug build panics
// when a released packet re-enters the pipeline or the wrong shard touches
// one.
func checkPacketLive(p *Packet, sh int, where string) {}

// packetCrossShard is a no-op in production builds; the debug build
// re-stamps pool ownership when a packet crosses shards.
func packetCrossShard(p *Packet, to int) {}
