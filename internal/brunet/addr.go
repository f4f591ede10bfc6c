// Package brunet implements the structured peer-to-peer overlay at the core
// of WOW, following the Brunet protocol suite described in §IV of the
// paper: a ring of nodes ordered by 160-bit addresses, greedy routing over
// structured near and far connections, a connection protocol (Connect-To-Me
// requests routed over the overlay), a linking protocol (direct handshakes
// that try a peer's URIs one by one, punching holes through NATs), and
// adaptive shortcut connections driven by traffic inspection.
package brunet

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// AddrBytes is the size of a Brunet address: 160 bits.
const AddrBytes = 20

// Addr is a 160-bit Brunet P2P address. Nodes are ordered around a ring by
// these addresses; all routing metrics derive from ring distance.
type Addr [AddrBytes]byte

// Zero is the all-zero address; used as "unset".
var Zero Addr

// IsZero reports whether a is the unset address.
func (a Addr) IsZero() bool { return a == Zero }

// String renders the first 8 hex digits, enough to identify nodes in logs.
func (a Addr) String() string { return hex.EncodeToString(a[:4]) }

// FullString renders all 40 hex digits.
func (a Addr) FullString() string { return hex.EncodeToString(a[:]) }

// AddrFromString derives a deterministic address by hashing s with SHA-1.
// WOW uses it to map virtual IPs to P2P addresses so that a migrated VM
// keeps its overlay identity.
func AddrFromString(s string) Addr {
	return Addr(sha1.Sum([]byte(s)))
}

// RandomAddr draws a uniformly random address from rng.
func RandomAddr(rng *rand.Rand) Addr {
	var a Addr
	for i := 0; i < AddrBytes; i += 4 {
		v := rng.Uint32()
		a[i] = byte(v >> 24)
		a[i+1] = byte(v >> 16)
		a[i+2] = byte(v >> 8)
		a[i+3] = byte(v)
	}
	return a
}

// limbs is the word view of an address: bytes 0–7, 8–15 and 16–19 loaded
// big-endian, so 160-bit ring arithmetic and comparison run on three
// machine words with carry and borrow chained through math/bits instead
// of a twenty-step byte loop.
type limbs struct {
	hi, mid uint64
	lo      uint32
}

// limbs loads the word view of a. The pointer receiver makes the loads
// read a in place: a value receiver copies the 20 bytes with overlapping
// stores, and reloading a word across two of them stalls store forwarding.
func (a *Addr) limbs() limbs {
	return limbs{
		hi:  binary.BigEndian.Uint64(a[0:8]),
		mid: binary.BigEndian.Uint64(a[8:16]),
		lo:  binary.BigEndian.Uint32(a[16:20]),
	}
}

// addr stores x back as an address.
func (x limbs) addr() Addr {
	var a Addr
	binary.BigEndian.PutUint64(a[0:8], x.hi)
	binary.BigEndian.PutUint64(a[8:16], x.mid)
	binary.BigEndian.PutUint32(a[16:20], x.lo)
	return a
}

// cmp compares x and y as 160-bit unsigned integers, returning -1, 0 or 1.
func (x limbs) cmp(y limbs) int {
	if x.hi != y.hi {
		return cmpWord(x.hi, y.hi)
	}
	if x.mid != y.mid {
		return cmpWord(x.mid, y.mid)
	}
	return cmpWord(uint64(x.lo), uint64(y.lo))
}

// cmpWord three-way-compares two words. (cmp.Compare's NaN handling would
// push limbs.cmp past the inlining budget.)
func cmpWord(x, y uint64) int {
	if x < y {
		return -1
	}
	if x > y {
		return 1
	}
	return 0
}

// add returns (x + y) mod 2^160.
func (x limbs) add(y limbs) limbs {
	lo, c := bits.Add32(x.lo, y.lo, 0)
	mid, c64 := bits.Add64(x.mid, y.mid, uint64(c))
	hi, _ := bits.Add64(x.hi, y.hi, c64)
	return limbs{hi, mid, lo}
}

// sub returns (x - y) mod 2^160.
func (x limbs) sub(y limbs) limbs {
	lo, b := bits.Sub32(x.lo, y.lo, 0)
	mid, b64 := bits.Sub64(x.mid, y.mid, uint64(b))
	hi, _ := bits.Sub64(x.hi, y.hi, b64)
	return limbs{hi, mid, lo}
}

// shorter reduces a clockwise distance x to its ring minimum, min(x, −x)
// mod 2^160, by the top-bit test: x ≥ 2^159 means the counter-clockwise
// direction is no longer (the two sum to 2^160, and at exactly 2^159 they
// are equal).
func (x limbs) shorter() limbs {
	if x.hi>>63 != 0 {
		return limbs{}.sub(x)
	}
	return x
}

// Cmp compares addresses as 160-bit big-endian unsigned integers,
// returning -1, 0 or 1.
func (a Addr) Cmp(b Addr) int { return a.limbs().cmp(b.limbs()) }

// Less reports a < b in address order.
func (a Addr) Less(b Addr) bool { return a.Cmp(b) < 0 }

// addModRing returns (a + b) mod 2^160.
func addModRing(a, b Addr) Addr { return a.limbs().add(b.limbs()).addr() }

// subModRing returns (a - b) mod 2^160.
func subModRing(a, b Addr) Addr { return a.limbs().sub(b.limbs()).addr() }

// Clockwise returns the clockwise (increasing-address) ring distance from a
// to b: (b - a) mod 2^160.
func (a Addr) Clockwise(b Addr) Addr { return subModRing(b, a) }

// RingDist returns the bidirectional ring distance between a and b: the
// smaller of the clockwise and counter-clockwise distances. Greedy routing
// minimizes this metric, per §IV-A.
func (a Addr) RingDist(b Addr) Addr { return ringDist(a, b).addr() }

// ringDist is the bidirectional ring distance from a to dst in word form:
// the clockwise distance reduced to its ring minimum by the top-bit test.
func ringDist(a, dst Addr) limbs { return dst.limbs().sub(a.limbs()).shorter() }

// CmpClockwise three-way-compares the clockwise distances from origin o to
// a and to b — the comparison `o.Clockwise(a).Cmp(o.Clockwise(b))` with
// both distances computed in word form, never stored as addresses.
func (o Addr) CmpClockwise(a, b Addr) int {
	ol := o.limbs()
	return a.limbs().sub(ol).cmp(b.limbs().sub(ol))
}

// CmpRingDist three-way-compares the bidirectional ring distances from dst
// to a and to b — `a.RingDist(dst).Cmp(b.RingDist(dst))` without
// materializing either distance as an address.
func (dst Addr) CmpRingDist(a, b Addr) int {
	return ringDist(a, dst).cmp(ringDist(b, dst))
}

// isRight reports whether x lies on o's right: its clockwise distance from
// o is strictly shorter than its counter-clockwise one. o itself and its
// antipode (both directions 2^159) are not on the right.
func (o Addr) isRight(x Addr) bool {
	d := x.limbs().sub(o.limbs())
	return d.hi>>63 == 0 && d != limbs{}
}

// Between reports whether x lies strictly within the clockwise arc from a
// to b. The arc from a to a is the whole ring minus a itself.
func Between(x, a, b Addr) bool {
	if x == a || x == b {
		return false
	}
	return a.CmpClockwise(x, b) < 0 || a == b
}

// Offset returns a + offset on the ring.
func (a Addr) Offset(offset Addr) Addr { return addModRing(a, offset) }

// Float64 maps the address to [0, 1) with ~52 bits of precision; used by
// the Kleinberg far-connection sampler.
func (a Addr) Float64() float64 {
	return float64(a.limbs().hi) / math.Exp2(64)
}

// AddrFromFloat maps u in [0, 1) to an address (inverse of Float64, with
// the low 96 bits zero).
func AddrFromFloat(u float64) Addr {
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return limbs{hi: uint64(u * math.Exp2(64))}.addr()
}

// KleinbergOffset samples a clockwise ring offset with probability density
// proportional to 1/d, the small-world distribution of the paper's
// reference [37] that yields O((1/k)·log²n) routing. Offsets span
// [2^-b, 1/2) of the ring, with b chosen so the smallest offsets are still
// beyond immediate neighbors in networks of realistic size.
func KleinbergOffset(rng *rand.Rand) Addr {
	const minExp = -40.0 // 2^-40 of the ring: far beyond near neighbors
	const maxExp = -1.0  // half the ring
	e := minExp + rng.Float64()*(maxExp-minExp)
	return AddrFromFloat(math.Exp2(e))
}

// Fmt renders a short diagnostic form "addr/offset-fraction" used in ring
// dumps.
func (a Addr) Fmt() string { return fmt.Sprintf("%s(%.4f)", a.String(), a.Float64()) }
