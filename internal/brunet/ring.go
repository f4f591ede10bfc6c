package brunet

import "slices"

// ringIndex keeps a node's structured connections sorted by clockwise
// distance from the node's own address — the circular order of the ring as
// seen from this node. It is maintained incrementally on every connection
// add and role drop, so the routing hot path finds the connection nearest
// to a destination with one binary search plus a constant-size neighbor
// probe instead of a linear scan, and the near overlord walks ring sides
// without re-sorting per call.
//
// keys[i] is conns[i].Peer's clockwise offset from origin, precomputed so
// searches and distance scoring run on a contiguous array of words
// instead of following connection pointers. It is stored as a 20-byte
// Addr rather than a limbs value (24 bytes with padding) to keep the index
// small; the two slices change only together.
//
// Membership invariant: a connection is in the index exactly while
// Connection.structured() is true and the connection is live; the inRing
// flag on the connection mirrors membership so insert/remove are
// idempotent.
type ringIndex struct {
	origin Addr
	conns  []*Connection
	keys   []Addr
}

// reset clears the index (node stop) and re-anchors it at origin.
func (r *ringIndex) reset(origin Addr) {
	r.origin = origin
	for _, c := range r.conns {
		c.inRing = false
	}
	r.conns = r.conns[:0]
	r.keys = r.keys[:0]
}

// key returns a's clockwise offset from origin: its sort key.
func (r *ringIndex) key(a Addr) limbs { return a.limbs().sub(r.origin.limbs()) }

// search returns the insertion index for address a: the first position
// whose peer is at a clockwise distance from origin no smaller than a's.
func (r *ringIndex) search(a Addr) int { return r.searchKey(r.key(a)) }

// searchKey is search on a precomputed key: a binary search of plain word
// compares, hand-rolled so the compare stays direct (no closure) on the
// routing hot path.
func (r *ringIndex) searchKey(k limbs) int {
	lo, hi := 0, len(r.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.keys[mid].limbs().cmp(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds c at its sorted position. Inserting a member is a no-op.
func (r *ringIndex) insert(c *Connection) {
	if c.inRing {
		return
	}
	k := r.key(c.Peer)
	i := r.searchKey(k)
	r.conns = slices.Insert(r.conns, i, c)
	r.keys = slices.Insert(r.keys, i, k.addr())
	c.inRing = true
}

// remove deletes c from the index. Removing a non-member is a no-op.
func (r *ringIndex) remove(c *Connection) {
	if !c.inRing {
		return
	}
	i := r.search(c.Peer)
	if i >= len(r.conns) || r.conns[i] != c {
		// Defensive: the sorted position must hold c (peers are unique
		// map keys), but fall back to a scan rather than corrupt the
		// index if the invariant is ever violated.
		i = slices.Index(r.conns, c)
		if i < 0 {
			c.inRing = false
			return
		}
	}
	r.conns = slices.Delete(r.conns, i, i+1)
	r.keys = slices.Delete(r.keys, i, i+1)
	c.inRing = false
}

// nearest returns the member whose peer minimizes bidirectional ring
// distance to dst, excluding one peer address, with ties broken toward the
// smaller peer address — the same selection as the linear-scan oracle —
// and whether that peer is strictly closer to dst than origin is. The
// minimizer over a circularly sorted set is one of dst's two circular
// neighbors; with one possible exclusion per side, the four slots around
// the insertion point cover every candidate. Each candidate's distance to
// dst is the difference of the two keys reduced to the shorter direction,
// and origin's own distance is dst's key reduced the same way.
func (r *ringIndex) nearest(dst, exclude Addr) (best *Connection, closer bool) {
	m := len(r.keys)
	if m == 0 {
		return nil, false
	}
	kd, kx := r.key(dst), r.key(exclude)
	i := r.searchKey(kd)
	b := -1
	var bd limbs
	for _, j := range [4]int{i - 2, i - 1, i, i + 1} {
		j = ((j % m) + m) % m
		kj := r.keys[j].limbs()
		if kj == kx || j == b {
			continue
		}
		d := kd.sub(kj).shorter()
		if b >= 0 {
			if cmp := d.cmp(bd); cmp > 0 || (cmp == 0 && !r.conns[j].Peer.Less(r.conns[b].Peer)) {
				continue
			}
		}
		b, bd = j, d
	}
	if b < 0 {
		return nil, false
	}
	return r.conns[b], bd.cmp(kd.shorter()) < 0
}

// nthOnSide returns the k-th (1-based) structured-near connection on the
// given ring side counting outward from this node — clockwise (right=true)
// or counter-clockwise — or nil when the side holds fewer than k. The
// index is sorted clockwise and counter-clockwise distance is the ring
// complement of clockwise distance, so the left side is the slice walked
// backwards.
func (n *Node) nthOnSide(right bool, k int) *Connection {
	conns := n.ring.conns
	m := len(conns)
	for i := 0; i < m; i++ {
		c := conns[i]
		if !right {
			c = conns[m-1-i]
		}
		if c.Has(StructuredNear) {
			if k--; k == 0 {
				return c
			}
		}
	}
	return nil
}

// nearByAddr appends the structured-near connections to buf in address
// order and returns the extended slice. The index is sorted by clockwise
// distance from this node's address, so address order is the index
// rotated to start at search(Zero) — the first peer below our own
// address — and no sort is needed. Callers pass a slice of a stack array:
// the result is a snapshot that stays valid while connections drop, and a
// caller-owned buffer cannot be clobbered by a re-entrant call from a
// disconnection callback.
func (n *Node) nearByAddr(buf []*Connection) []*Connection {
	z := n.ring.search(Zero)
	for _, part := range [2][]*Connection{n.ring.conns[z:], n.ring.conns[:z]} {
		for _, c := range part {
			if c.Has(StructuredNear) {
				buf = append(buf, c)
			}
		}
	}
	return buf
}

// dropConnRole removes role t from c, tearing the whole connection down
// (with a close to the peer) when no roles remain, and keeping the ring
// index consistent when the connection survives but stops being a ring
// router — e.g. a trimmed near link that still serves a leaf child.
func (n *Node) dropConnRole(c *Connection, t ConnType, reason string) {
	if !c.dropType(t) {
		n.dropConnection(c, true, reason)
		return
	}
	if !c.structured() {
		n.ring.remove(c)
	}
}
