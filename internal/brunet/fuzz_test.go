package brunet

import (
	"bytes"
	"testing"
)

// FuzzRingMath exercises the 160-bit modular arithmetic invariants with
// arbitrary byte patterns, and compares every primitive with the math/big
// oracle. Bytes past the first two addresses, zero-padded, form the
// origin of the comparator checks.
func FuzzRingMath(f *testing.F) {
	f.Add(make([]byte, 40), false)
	f.Add([]byte("0123456789012345678901234567890123456789"), true)
	// Borrow chains across both limb boundaries, 2^159 ± 1 against the
	// all-0xFF address, and a shared 16-byte prefix.
	f.Add(append(append(make([]byte, 20), bytes.Repeat([]byte{0xff}, 20)...), 0x80), false)
	f.Add(append(append([]byte{0x7f}, bytes.Repeat([]byte{0xff}, 19)...), append(append([]byte{0x80}, make([]byte, 18)...), 1)...), true)
	f.Add(append(append(bytes.Repeat([]byte{0x5a}, 16), 0, 0, 0, 1), append(bytes.Repeat([]byte{0x5a}, 16), 0xff, 0xff, 0xff, 0xff)...), false)
	f.Fuzz(func(t *testing.T, raw []byte, flip bool) {
		if len(raw) < 2*AddrBytes {
			return
		}
		var a, b, o Addr
		copy(a[:], raw[:AddrBytes])
		copy(b[:], raw[AddrBytes:2*AddrBytes])
		copy(o[:], raw[2*AddrBytes:])
		if flip {
			a, b = b, a
		}
		if err := checkRingMathOracle(o, a, b); err != nil {
			t.Fatal(err)
		}
		if subModRing(addModRing(a, b), b) != a {
			t.Fatal("add/sub not inverse")
		}
		if a.RingDist(b) != b.RingDist(a) {
			t.Fatal("RingDist asymmetric")
		}
		if a != b {
			cw := Between(a.Offset(AddrFromFloat(0)), a, b) // a itself: never between
			if cw {
				t.Fatal("endpoint reported between")
			}
		}
		_ = a.Fmt()
		_ = a.Float64()
	})
}
