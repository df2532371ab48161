package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// decodeReference is the slow reference for inferParser: the
// encoding/json decode the infer routes ran before it.
func decodeReference(b []byte) (InferRequest, error) {
	var req InferRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req, err
}

// FuzzDecodeInferRequest holds inferParser to encoding/json on every body:
// both accept it or both reject it, and an accepted body decodes to the
// same InferRequest — nil and empty slices told apart, every float32
// compared by its bits, so −0 is not +0. testdata/fuzz holds seeds for
// upper-case and fold-equivalent keys, an unknown nested key with non-ASCII
// text, null rows and elements, a repeated key refilling a slice, an
// out-of-range float32, a leading zero, a trailing comma, bytes after the
// object and a fraction in shape, and for the float32 conversion: −0, the
// float32 midpoints 16777217 and 1+2⁻²⁴, a decimal just above a midpoint
// that float64 rounds onto it, the largest float32 and a value past it,
// the smallest denormal and a value rounding to zero, and a 20-digit
// mantissa; the two added here sit either side of encoding/json's nesting
// limit. `go test -fuzz=FuzzDecodeInferRequest ./internal/serve` (or `make
// fuzz-smoke`) explores further.
func FuzzDecodeInferRequest(f *testing.F) {
	f.Add([]byte(`{"input":[0.25,-1.5e-3,7],"shape":[1,1,3]}`))
	for _, depth := range []int{9999, 10000} { // arrays inside the top-level object
		f.Add([]byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"input":[1]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := parseInferRequest(body)
		want, wantErr := decodeReference(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: parser error %v, encoding/json error %v", body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(bitsOf(got), bitsOf(want)) {
			t.Fatalf("%q: parser decoded %#v, encoding/json %#v", body, got, want)
		}
	})
}

// requestBits is an InferRequest with each float32 as its bits.
type requestBits struct {
	Input  []uint32
	Inputs [][]uint32
	Shape  []int
}

// bitsOf maps r's floats to their bits, keeping nil and empty slices
// apart, so that reflect.DeepEqual tells −0 from +0.
func bitsOf(r InferRequest) requestBits {
	row := func(f []float32) []uint32 {
		if f == nil {
			return nil
		}
		out := make([]uint32, len(f))
		for i, v := range f {
			out[i] = math.Float32bits(v)
		}
		return out
	}
	b := requestBits{Input: row(r.Input), Shape: r.Shape}
	if r.Inputs != nil {
		b.Inputs = make([][]uint32, len(r.Inputs))
		for i, in := range r.Inputs {
			b.Inputs[i] = row(in)
		}
	}
	return b
}

// BenchmarkServeDecode decodes a 768-float infer body (one resnet20s
// input) through encoding/json, the reference, and through the parser the
// infer routes run.
func BenchmarkServeDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]float32, 768)
	for i := range in {
		in[i] = float32(rng.NormFloat64())
	}
	body, err := json.Marshal(InferRequest{Input: in})
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name   string
		decode func([]byte) (InferRequest, error)
	}{{"encoding-json", decodeReference}, {"live", parseInferRequest}} {
		b.Run(leg.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := leg.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
