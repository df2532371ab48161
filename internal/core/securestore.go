package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"radar/internal/quant"
)

// SecureStore is the bit-exact serialized form of a protector's secret
// state — what a deployment would burn into secure on-chip memory. Golden
// signatures are packed at their true 2- or 3-bit width (the storage the
// paper's KB figures count), followed by the per-layer keys and interleave
// offsets.
//
// Layout (little-endian):
//
//	magic "RdR1" | uint16 layerCount
//	per layer: uint32 numGroups | uint8 sigBits | uint8 flags(bit0=interleave)
//	           uint16 key | uint8 offset | uint32 G
//	           packed signature bits (ceil(numGroups*sigBits/8) bytes)
type SecureStore struct {
	// Blob is the serialized state.
	Blob []byte
}

var storeMagic = [4]byte{'R', 'd', 'R', '1'}

// Seal packs the protector's golden signatures and per-layer secrets.
func (p *Protector) Seal() SecureStore {
	var out []byte
	out = append(out, storeMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(p.Schemes)))
	for li, s := range p.Schemes {
		golden := p.Golden[li]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(golden)))
		out = append(out, uint8(s.SigBits))
		var flags uint8
		if s.Interleave {
			flags |= 1
		}
		out = append(out, flags)
		out = binary.LittleEndian.AppendUint16(out, s.Key)
		out = append(out, uint8(s.Offset))
		out = binary.LittleEndian.AppendUint32(out, uint32(s.G))
		out = append(out, packBits(golden, s.SigBits)...)
	}
	return SecureStore{Blob: out}
}

// UnsealProtector reconstructs a protector bound to the given quantized
// model from sealed state. It fails if the sealed geometry does not match
// the model (wrong model, wrong group size, corrupted blob).
func UnsealProtector(m *quant.Model, store SecureStore) (*Protector, error) {
	schemes, golden, err := parseStore(store.Blob)
	if err != nil {
		return nil, err
	}
	if len(schemes) != len(m.Layers) {
		return nil, fmt.Errorf("core: sealed store has %d layers, model has %d",
			len(schemes), len(m.Layers))
	}
	for i, s := range schemes {
		if want := s.NumGroups(len(m.Layers[i].Q)); want != len(golden[i]) {
			return nil, fmt.Errorf("core: layer %d: sealed %d groups, model needs %d",
				i, len(golden[i]), want)
		}
	}
	p := &Protector{Model: m, Schemes: schemes, Golden: golden,
		dirty: make([]bool, len(m.Layers))}
	p.compilePlans()
	p.unobserve = m.Observe(p.markDirty)
	return p, nil
}

// packBits packs values of width bits (1..8) densely, LSB-first.
func packBits(vals []uint8, width int) []byte {
	nbits := len(vals) * width
	out := make([]byte, (nbits+7)/8)
	bit := 0
	for _, v := range vals {
		for b := 0; b < width; b++ {
			if v>>uint(b)&1 == 1 {
				out[bit/8] |= 1 << uint(bit%8)
			}
			bit++
		}
	}
	return out
}

// unpackBits reverses packBits.
func unpackBits(data []byte, n, width int) []uint8 {
	out := make([]uint8, n)
	bit := 0
	for i := 0; i < n; i++ {
		var v uint8
		for b := 0; b < width; b++ {
			if data[bit/8]>>uint(bit%8)&1 == 1 {
				v |= 1 << uint(b)
			}
			bit++
		}
		out[i] = v
	}
	return out
}

// Size returns the sealed blob size in bytes.
func (s SecureStore) Size() int { return len(s.Blob) }

// parseStore decodes the blob into schemes and golden signatures.
func parseStore(blob []byte) ([]Scheme, [][]uint8, error) {
	if len(blob) < 6 || blob[0] != 'R' || blob[1] != 'd' || blob[2] != 'R' || blob[3] != '1' {
		return nil, nil, errors.New("core: bad secure-store magic")
	}
	n := int(binary.LittleEndian.Uint16(blob[4:6]))
	pos := 6
	schemes := make([]Scheme, 0, n)
	golden := make([][]uint8, 0, n)
	for i := 0; i < n; i++ {
		if pos+13 > len(blob) {
			return nil, nil, fmt.Errorf("core: truncated store at layer %d header", i)
		}
		groups := int(binary.LittleEndian.Uint32(blob[pos:]))
		sigBits := int(blob[pos+4])
		flags := blob[pos+5]
		key := binary.LittleEndian.Uint16(blob[pos+6:])
		offset := int(blob[pos+8])
		g := int(binary.LittleEndian.Uint32(blob[pos+9:]))
		pos += 13
		packed := (groups*sigBits + 7) / 8
		if pos+packed > len(blob) {
			return nil, nil, fmt.Errorf("core: truncated store at layer %d signatures", i)
		}
		schemes = append(schemes, Scheme{
			G: g, Interleave: flags&1 == 1, Offset: offset, Key: key, SigBits: sigBits,
		})
		golden = append(golden, unpackBits(blob[pos:pos+packed], groups, sigBits))
		pos += packed
	}
	if pos != len(blob) {
		return nil, nil, errors.New("core: trailing bytes in secure store")
	}
	return schemes, golden, nil
}
