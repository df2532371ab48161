// Package ecc implements the error-detection baselines the paper compares
// RADAR against (§VII.B, Table V): cyclic redundancy checks and Hamming
// SEC-DED codes. These are generic data-integrity codes;
// the comparison point is their much larger storage and time overhead for
// the same group sizes.
package ecc

import "fmt"

// CRC is a w-bit cyclic redundancy check computed MSB-first bit-serially —
// the formulation whose per-bit shift/XOR cost underlies the Table V
// hardware cost model.
type CRC struct {
	// Width is the CRC width in bits (7, 10, 13, ...).
	Width int
	// Poly is the generator polynomial in "normal" form: the low Width
	// coefficient bits with the x^Width term implicit.
	Poly uint32
	name string
}

// The polynomials below are primitive, so each code has period 2^w−1 and
// guarantees detection of all 1- and 2-bit errors (HD ≥ 3) for block
// lengths up to that period — covering the paper's 64-bit (G=8) and
// 4096-bit (G=512) groups. Primitivity is verified by TestCRCPeriods.
var (
	// CRC7 (x⁷+x³+1) protects 64-bit blocks — the G=8 row of Table V.
	CRC7 = CRC{Width: 7, Poly: 0x09, name: "CRC-7"}
	// CRC10 (x¹⁰+x³+1) protects the 512 MSBs of a G=512 group — the
	// paper's "if only the MSBs were to be protected" option.
	CRC10 = CRC{Width: 10, Poly: 0x009, name: "CRC-10"}
	// CRC13 (x¹³+x⁴+x³+x+1) protects 4096-bit blocks — the G=512 row.
	CRC13 = CRC{Width: 13, Poly: 0x001B, name: "CRC-13"}
)

// Name returns the human-readable code name.
func (c CRC) Name() string { return c.name }

// mask returns the Width-bit register mask.
func (c CRC) mask() uint32 { return (uint32(1) << uint(c.Width)) - 1 }

// Compute returns the CRC of data bytes, MSB-first within each byte.
func (c CRC) Compute(data []byte) uint32 {
	var reg uint32
	topShift := uint(c.Width - 1)
	m := c.mask()
	for _, b := range data {
		for bit := 7; bit >= 0; bit-- {
			fb := (reg>>topShift)&1 ^ uint32(b>>uint(bit))&1
			reg = (reg << 1) & m
			if fb == 1 {
				reg ^= c.Poly
			}
		}
	}
	return reg
}

// ComputeInt8 adapts Compute to quantized weight groups.
func (c CRC) ComputeInt8(q []int8) uint32 {
	buf := make([]byte, len(q))
	for i, v := range q {
		buf[i] = byte(v)
	}
	return c.Compute(buf)
}

// Period returns the multiplicative order of x modulo the generator — the
// maximum total block length (data+CRC) with guaranteed 2-bit error
// detection. For a primitive polynomial this is 2^Width − 1.
func (c CRC) Period() int {
	// Track reg = x^k mod g(x) until it returns to 1.
	m := c.mask()
	topShift := uint(c.Width - 1)
	reg := uint32(2) & m // x
	for k := 1; k <= 1<<uint(c.Width); k++ {
		if reg == 1 {
			return k
		}
		fb := (reg >> topShift) & 1
		reg = (reg << 1) & m
		if fb == 1 {
			reg ^= c.Poly
		}
	}
	return -1
}

// String implements fmt.Stringer.
func (c CRC) String() string {
	return fmt.Sprintf("%s(poly=0x%X)", c.name, c.Poly)
}
