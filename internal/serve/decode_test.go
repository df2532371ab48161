package serve

import (
	"bytes"
	"encoding/json"
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
// same InferRequest — nil and empty slices told apart. testdata/fuzz holds
// seeds for upper-case and fold-equivalent keys, an unknown nested key with
// non-ASCII text, null rows and elements, a repeated key refilling a slice,
// an out-of-range float32, a leading zero, a trailing comma, bytes after
// the object and a fraction in shape; the two added here sit either side of
// encoding/json's nesting limit. `go test -fuzz=FuzzDecodeInferRequest
// ./internal/serve` (or `make fuzz-smoke`) explores further.
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
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: parser decoded %#v, encoding/json %#v", body, got, want)
		}
	})
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
