//go:build packetdebug

package phys

import "fmt"

// Debug packet pool: a misuse detector for the pooled *Packet lifecycle.
// Holding a *Packet beyond its OnRecv/OnDrop callback is a bug — the pool
// will recycle it and the fields will silently mutate under the holder.
// Under -tags packetdebug packets are never reused: releasePacket poisons
// the packet instead of pooling it, a second release panics, and a
// poisoned packet re-entering the delivery pipeline (send, deliver, drop)
// panics at the checkpoint. The pool is also shard-aware: every packet
// carries the shard whose free list owns it (re-stamped by the engine
// hand-off when it crosses shards — including boundary-deferred packets,
// which are re-stamped to the claiming realm's owning shard before the
// inbound NAT/firewall descent runs there), and a release or pipeline
// touch by any other shard panics — the single-owner rule that keeps
// lock-free pooling sound under parallel execution. deliverBoundary
// re-checks liveness and ownership at the realm boundary ("boundary"
// checkpoint). CI runs the phys tests with this tag under -race so all
// misuse classes surface loudly.

// acquirePacket always allocates: released packets stay poisoned forever,
// so any retained pointer keeps tripping checks instead of aliasing a
// recycled packet. The new packet is owned by the acquiring shard.
func (n *Network) acquirePacket(sh int) *Packet { return &Packet{ownerShard: int32(sh)} }

// releasePacket poisons the packet. Fields are scrambled to obviously
// wrong values so even unchecked reads of a stale pointer misbehave
// deterministically rather than reading recycled data.
func (n *Network) releasePacket(sh int, p *Packet) {
	if p.poisoned {
		panic(fmt.Sprintf("phys: double release of packet %s->%s proto=%d (first released on shard %d, released again on shard %d)",
			p.Src, p.Dst, p.Proto, p.releasedBy, sh))
	}
	if int(p.ownerShard) != sh {
		panic(fmt.Sprintf("phys: cross-shard release of packet %s->%s proto=%d: owned by shard %d, released by shard %d",
			p.Src, p.Dst, p.Proto, p.ownerShard, sh))
	}
	p.poisoned = true
	p.releasedBy = int32(sh)
	p.Src, p.Dst = Endpoint{}, Endpoint{}
	p.Size = -1
	p.Payload = "phys: use of released packet"
	p.dest = nil
	p.entry = nil
	p.src = nil
}

// checkPacketLive panics if a released packet re-enters the pipeline, or
// if a shard touches a packet it does not own.
func checkPacketLive(p *Packet, sh int, where string) {
	if p.poisoned {
		panic("phys: use of released packet in " + where)
	}
	if int(p.ownerShard) != sh {
		panic(fmt.Sprintf("phys: packet owned by shard %d touched by shard %d in %s", p.ownerShard, sh, where))
	}
}

// packetCrossShard transfers pool ownership to the destination shard as
// the packet enters the engine's cross-shard lane.
func packetCrossShard(p *Packet, to int) {
	if p.poisoned {
		panic("phys: released packet crossing shards")
	}
	p.ownerShard = int32(to)
}
