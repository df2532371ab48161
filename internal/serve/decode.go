package serve

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// inferParser decodes an InferRequest body in one pass, without reflection,
// to json.NewDecoder(…).Decode's accept/reject and value: unknown keys
// validated and skipped, nesting capped at 10000, keys matched by EqualFold,
// numbers by the same strconv calls, slices filled alike, a tail ignored.
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

func (p *inferParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i]-'0' < 10 {
		p.i++
	}
	return p.i > start
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

// number consumes a number into dst (*float32, *int or nil) by the strconv
// call encoding/json makes for its type, or null, leaving *dst as it was.
func (p *inferParser) number(dst any) (err error) {
	if p.is("null") {
		return nil
	}
	start := p.i
	p.eat("-") // then (0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
	ok := (p.eat("0") || p.digits()) && (!p.eat(".") || p.digits())
	if ok && (p.eat("e") || p.eat("E")) {
		_ = p.eat("+") || p.eat("-")
		ok = p.digits()
	}
	if !ok {
		return p.fail("bad number")
	}
	switch d := dst.(type) {
	case *float32:
		v, e := strconv.ParseFloat(string(p.b[start:p.i]), 32)
		*d, err = float32(v), e
	case *int:
		*d, err = strconv.Atoi(string(p.b[start:p.i]))
	}
	return err
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
