package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// ComputeInt8 adapts Compute to quantized weight groups.
func (c CRC) ComputeInt8(q []int8) uint32 {
	buf := make([]byte, len(q))
	for i, v := range q {
		buf[i] = byte(v)
	}
	return c.Compute(buf)
}

func TestCRCPeriods(t *testing.T) {
	// All three polynomials must be primitive: period = 2^w − 1. This is
	// what guarantees HD ≥ 3 (all 1- and 2-bit errors detected) out to the
	// paper's block lengths.
	cases := []struct {
		c    CRC
		want int
	}{
		{CRC7, 127},
		{CRC10, 1023},
		{CRC13, 8191},
	}
	for _, c := range cases {
		if got := c.c.Period(); got != c.want {
			t.Errorf("%s period = %d, want %d", c.c.Name(), got, c.want)
		}
	}
}

func TestCRC7DetectsAllSingleAndDoubleBitErrors64(t *testing.T) {
	// Exhaustive over a 64-bit (8-weight) block: every 1-bit and 2-bit
	// corruption must change the CRC-7.
	rng := rand.New(rand.NewSource(1))
	orig := make([]int8, 8)
	for i := range orig {
		orig[i] = int8(rng.Intn(256) - 128)
	}
	base := CRC7.ComputeInt8(orig)
	nbits := len(orig) * 8
	flip := func(q []int8, bit int) {
		q[bit/8] = int8(uint8(q[bit/8]) ^ (1 << uint(7-bit%8)))
	}
	for i := 0; i < nbits; i++ {
		c := append([]int8(nil), orig...)
		flip(c, i)
		if CRC7.ComputeInt8(c) == base {
			t.Fatalf("CRC-7 missed single-bit error at %d", i)
		}
		for j := i + 1; j < nbits; j++ {
			c2 := append([]int8(nil), c...)
			flip(c2, j)
			if CRC7.ComputeInt8(c2) == base {
				t.Fatalf("CRC-7 missed double-bit error at %d,%d", i, j)
			}
		}
	}
}

func TestCRC13DetectsSampledDoubleErrors4096(t *testing.T) {
	// Sampled double-bit errors over a 512-weight (4096-bit) block.
	rng := rand.New(rand.NewSource(2))
	orig := make([]int8, 512)
	for i := range orig {
		orig[i] = int8(rng.Intn(256) - 128)
	}
	base := CRC13.ComputeInt8(orig)
	nbits := len(orig) * 8
	flip := func(q []int8, bit int) {
		q[bit/8] = int8(uint8(q[bit/8]) ^ (1 << uint(7-bit%8)))
	}
	for trial := 0; trial < 3000; trial++ {
		i, j := rng.Intn(nbits), rng.Intn(nbits)
		if i == j {
			continue
		}
		c := append([]int8(nil), orig...)
		flip(c, i)
		flip(c, j)
		if CRC13.ComputeInt8(c) == base {
			t.Fatalf("CRC-13 missed double-bit error at %d,%d", i, j)
		}
	}
}

func TestCRCDeterministicAndDataDependent(t *testing.T) {
	a := []int8{1, 2, 3, 4}
	b := []int8{1, 2, 3, 5}
	if CRC7.ComputeInt8(a) != CRC7.ComputeInt8(a) {
		t.Fatal("CRC not deterministic")
	}
	if CRC7.ComputeInt8(a) == CRC7.ComputeInt8(b) {
		t.Fatal("CRC collision on trivially different data")
	}
}

func TestCRCWidthMask(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		for _, c := range []CRC{CRC7, CRC10, CRC13} {
			if c.Compute(data)>>uint(c.Width) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingSizing(t *testing.T) {
	// Paper §VII.B: 64 bits need 7 (+1 SEC-DED) check bits; 4096 need 13 (+1).
	if h := NewHamming(64); h.ParityBits != 7 {
		t.Fatalf("Hamming(64): r=%d", h.ParityBits)
	}
	if h := NewHamming(4096); h.ParityBits != 13 {
		t.Fatalf("Hamming(4096): r=%d", h.ParityBits)
	}
}

func TestHammingClassifySingleVsDouble(t *testing.T) {
	h := NewHamming(64)
	rng := rand.New(rand.NewSource(3))
	data := make([]uint8, 64)
	for i := range data {
		data[i] = uint8(rng.Intn(2))
	}
	stored := h.Encode(data)

	// Single-bit error → class 1 for every position.
	for i := 0; i < 64; i++ {
		c := append([]uint8(nil), data...)
		c[i] ^= 1
		if got := h.Classify(stored, h.Encode(c)); got != 1 {
			t.Fatalf("single error at %d classified %d", i, got)
		}
	}
	// Double-bit errors → class 2 (sampled).
	for trial := 0; trial < 500; trial++ {
		i, j := rng.Intn(64), rng.Intn(64)
		if i == j {
			continue
		}
		c := append([]uint8(nil), data...)
		c[i] ^= 1
		c[j] ^= 1
		if got := h.Classify(stored, h.Encode(c)); got != 2 {
			t.Fatalf("double error at %d,%d classified %d", i, j, got)
		}
	}
	// No error → class 0.
	if h.Classify(stored, h.Encode(data)) != 0 {
		t.Fatal("clean data classified as error")
	}
}

func TestHammingPanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHamming(8).Syndrome(make([]uint8, 9))
}

func TestHammingCorrectSingleLocatesBit(t *testing.T) {
	h := NewHamming(64)
	rng := rand.New(rand.NewSource(2))
	data := make([]uint8, 64)
	for i := range data {
		data[i] = uint8(rng.Intn(2))
	}
	stored := h.Encode(data)
	for i := 0; i < 64; i++ {
		c := append([]uint8(nil), data...)
		c[i] ^= 1
		pos := h.CorrectSingle(stored, h.Encode(c))
		if pos == 0 {
			t.Fatalf("single error at data bit %d not correctable", i)
		}
		if got := h.DataIndexOf(pos); got != i {
			t.Fatalf("correction points at data bit %d, want %d", got, i)
		}
	}
}

func TestHammingCorrectSingleRefusesDouble(t *testing.T) {
	h := NewHamming(64)
	rng := rand.New(rand.NewSource(3))
	data := make([]uint8, 64)
	stored := h.Encode(data)
	for trial := 0; trial < 200; trial++ {
		i, j := rng.Intn(64), rng.Intn(64)
		if i == j {
			continue
		}
		c := append([]uint8(nil), data...)
		c[i] ^= 1
		c[j] ^= 1
		if pos := h.CorrectSingle(stored, h.Encode(c)); pos != 0 {
			t.Fatalf("double error at %d,%d mis-corrected to position %d", i, j, pos)
		}
	}
}

func TestDataIndexOfParityPositions(t *testing.T) {
	h := NewHamming(64)
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
		if h.DataIndexOf(p) != -1 {
			t.Fatalf("position %d is a parity bit, not data", p)
		}
	}
	// Position 3 is the first data bit, position 5 the second, 6 the third.
	if h.DataIndexOf(3) != 0 || h.DataIndexOf(5) != 1 || h.DataIndexOf(6) != 2 {
		t.Fatal("data index mapping wrong")
	}
	if h.DataIndexOf(0) != -1 || h.DataIndexOf(-4) != -1 {
		t.Fatal("non-positive positions must map to -1")
	}
}

// BenchmarkCRC13Scan measures the bit-serial CRC-13 baseline over the same
// volume — the software analogue of Table V's time comparison.
func BenchmarkCRC13Scan(b *testing.B) {
	q := make([]int8, 1<<22)
	for i := range q {
		q[i] = int8(i * 31)
	}
	b.SetBytes(int64(len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(q); off += 512 {
			CRC13.ComputeInt8(q[off : off+512])
		}
	}
}
