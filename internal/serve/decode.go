package serve

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// inferParser decodes an InferRequest body in one pass, without reflection,
// to json.NewDecoder(…).Decode's accept/reject and value: unknown keys
// validated and skipped, nesting capped at 10000, keys matched by EqualFold,
// numbers to the same values as its strconv calls, slices filled alike, a
// tail ignored.
type inferParser struct {
	b   []byte
	i   int
	key []byte // the last string read
}

func parseInferRequest(b []byte) (req InferRequest, err error) {
	p := &inferParser{b: b}
	if p.is("null") {
		return req, nil
	}
	if !p.is("{") {
		return req, p.fail("want an object")
	}
	err = p.seq("}", func() error {
		switch k := p.key; {
		case bytes.EqualFold(k, []byte("input")):
			return list(p, &req.Input, p.number)
		case bytes.EqualFold(k, []byte("inputs")):
			return list(p, &req.Inputs, func(r any) error { return list(p, r.(*[]float32), p.number) })
		case bytes.EqualFold(k, []byte("shape")):
			return list(p, &req.Shape, p.number)
		}
		return p.skip(1)
	})
	return req, err
}

func (p *inferParser) fail(what string) error { return fmt.Errorf("%s at offset %d", what, p.i) }

// is consumes whitespace, then s if the input continues with it.
func (p *inferParser) is(s string) bool {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
	return p.eat(s)
}

func (p *inferParser) eat(s string) (ok bool) {
	if ok = p.i < len(p.b) && p.b[p.i] == s[0] && (len(s) == 1 || string(p.b[p.i:min(p.i+len(s), len(p.b))]) == s); ok {
		p.i += len(s)
	}
	return ok
}

// decimal is a number's magnitude as the scan reads it: m·10^e10, m made
// of its first 19 significant digits (nd of them). A later digit is
// skipped; m ≥ 10¹⁸ then, which keeps the number off float32's fast path.
type decimal struct {
	m       uint64
	nd, e10 int
}

// digits consumes a run of decimal digits into d; frac says they follow
// the decimal point, so each one kept lowers the exponent.
func (p *inferParser) digits(d *decimal, frac bool) bool {
	b, i, m, nd, kept := p.b, p.i, d.m, d.nd, 0
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		if nd < 19 {
			if m = m*10 + uint64(b[i]-'0'); m > 0 {
				nd++
			}
			kept++
		}
	}
	if frac {
		d.e10 -= kept
	}
	ok := i > p.i
	p.i, d.m, d.nd = i, m, nd
	return ok
}

// seq consumes an array or object after its opening bracket: items up to
// end, separated by commas, an object's each after its key, read into p.key.
func (p *inferParser) seq(end string, item func() error) error {
	if p.is(end) {
		return nil
	}
	for more := true; more; more = p.is(",") {
		if end == "}" {
			if err := p.str(); err != nil {
				return err
			}
			if bytes.IndexByte(p.key, '\\') >= 0 { // Unquote lacks only \/; a surrogate fails, and spells no field name
				k, _ := strconv.Unquote(`"` + strings.NewReplacer(`\\`, `\\`, `\/`, `/`).Replace(string(p.key)) + `"`)
				p.key = []byte(k)
			}
			if !p.is(":") {
				return p.fail("want :")
			}
		}
		if err := item(); err != nil {
			return err
		}
	}
	if !p.is(end) {
		return p.fail("want , or " + end)
	}
	return nil
}

// str consumes a string into p.key, its contents still escaped.
func (p *inferParser) str() error {
	if !p.is(`"`) {
		return p.fail("want a string")
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			p.key = p.b[start : p.i-1]
			return nil
		case c < ' ':
			return p.fail("control character in string")
		case c != '\\':
		case p.i+1 < len(p.b) && strings.IndexByte(`"\/bfnrt`, p.b[p.i+1]) >= 0:
			p.i++
		case p.i+6 <= len(p.b) && p.b[p.i+1] == 'u' && strings.Trim(string(p.b[p.i+2:p.i+6]), "0123456789abcdefABCDEF") == "":
			p.i += 5
		default:
			return p.fail("bad escape")
		}
	}
	return p.fail("unterminated string")
}

// number consumes a number into dst (*float32, *int or nil) as the
// strconv call encoding/json makes for its type reads it, or null, leaving
// *dst as it was. A float32's digits are folded into a decimal as they are
// scanned, so most need no second pass (see decimal.float32).
func (p *inferParser) number(dst any) (err error) {
	if p.is("null") {
		return nil
	}
	start := p.i
	var d decimal
	neg := p.eat("-") // then (0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
	ok := (p.eat("0") || p.digits(&d, false)) && (!p.eat(".") || p.digits(&d, true))
	if ok && (p.eat("e") || p.eat("E")) {
		sign := 1
		if !p.eat("+") && p.eat("-") {
			sign = -1
		}
		e, from := 0, p.i
		for ; p.i < len(p.b) && p.b[p.i]-'0' < 10; p.i++ {
			e = min(e*10+int(p.b[p.i]-'0'), 1<<20) // far past any float's range
		}
		ok, d.e10 = p.i > from, d.e10+sign*e
	}
	if !ok {
		return p.fail("bad number")
	}
	switch dst := dst.(type) {
	case *float32:
		*dst, err = d.float32(neg, p.b[start:p.i])
	case *int:
		*dst, err = strconv.Atoi(string(p.b[start:p.i]))
	}
	return err
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float32 is strconv.ParseFloat(string(text), 32) for the number d was
// scanned from. Where m and 10^|e10| are both exact float64s, one multiply
// or divide rounds m·10^e10 correctly to float64, and float32 of that is
// the correctly rounded float32 unless the float64 lies on a midpoint
// between two float32s (its low 29 bits 1<<28), where the first rounding
// may have chosen the tie. Such a value is 0 or between 10⁻²² and
// 2⁵³·10²², well inside float32's normal range, so no subnormal or
// overflow case arises. Midpoints and every other number go to ParseFloat.
func (d *decimal) float32(neg bool, text []byte) (float32, error) {
	if d.m <= 1<<53 && -22 <= d.e10 && d.e10 <= 22 {
		f := float64(d.m)
		if d.e10 < 0 {
			f /= pow10[-d.e10]
		} else {
			f *= pow10[d.e10]
		}
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			if neg {
				f = -f
			}
			return float32(f), nil
		}
	}
	v, err := strconv.ParseFloat(string(text), 32)
	return float32(v), err
}

// list decodes an array or null into *s as encoding/json fills a slice: on
// *s's backing array, so a null element keeps what was there; [] is fresh.
func list[T any](p *inferParser, s *[]T, elem func(any) error) error {
	if p.is("null") {
		*s = nil
		return nil
	}
	if !p.is("[") {
		return p.fail("want an array")
	}
	*s = (*s)[:0]
	err := p.seq("]", func() error {
		*s = slices.Grow(*s, 1)[:len(*s)+1]
		return elem(&(*s)[len(*s)-1])
	})
	if len(*s) == 0 {
		*s = []T{}
	}
	return err
}

// skip validates and consumes a value no field takes, depth containers in.
func (p *inferParser) skip(depth int) error {
	switch {
	case p.is("true") || p.is("false"): // or, failing, past whitespace
		return nil
	case p.i < len(p.b) && p.b[p.i] == '"':
		return p.str()
	case !p.is("[") && !p.is("{"):
		return p.number(nil)
	case depth == 10000:
		return p.fail("exceeded max depth")
	}
	return p.seq(string(rune(p.b[p.i-1]+2)), func() error { return p.skip(depth + 1) }) // ']', '}' follow '[', '{' by two
}
