// decode.go is the codec's read side: a pooled, allocation-disciplined
// decoder for DetectResponse and BatchResponse bodies — the two shapes
// the gateway reassembles on every proxied request.
//
// Semantics mirror json.Unmarshal (not the strict DisallowUnknownFields
// request decoders in wire.go — responses flow gateway←worker inside
// the trust boundary, and a gateway must keep forwarding verdicts when
// a newer worker adds a response field):
//   - unknown object keys are skipped, known keys match ASCII
//     case-insensitively, the last duplicate wins;
//   - null is a no-op for scalars, nil for pointers and slices;
//   - int fields take integer literals only (1e2 and 1.5 are errors,
//     exactly as encoding/json rejects them for Go ints);
//   - string literals reject raw control bytes, coerce invalid UTF-8
//     and unpaired surrogates to U+FFFD;
//   - nesting depth is capped, trailing non-whitespace is an error.
//
// The one place it is narrower than the stdlib: key folding is ASCII
// (stdlib's simple-fold would also match a U+017F "ſ" spelling of
// "semantic"). Canonical encodings — everything this repo's encoders or
// encoding/json produce — decode identically; the fuzz harness pins the
// exact contract (FuzzCodecRoundTrip for canonical bytes, the
// arbitrary-bytes fuzzer for "accepts ⇒ stdlib accepts").
//
// Each call borrows one pooled decoder carrying a reusable unescape
// scratch buffer; out-strings are copied out of it, so the caller's
// input buffer (a pooled router reply body, typically) can be released
// the moment the call returns.
package api

import (
	"fmt"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"idnlab/internal/core"
	"idnlab/internal/feat"
)

// maxDecodeDepth matches encoding/json's scanner nesting cap.
const maxDecodeDepth = 10000

type decoder struct {
	data    []byte
	pos     int
	depth   int
	scratch []byte // unescape buffer, reused across string literals
}

const maxPooledScratch = 1 << 16

var decoderPool = sync.Pool{New: func() any { return &decoder{scratch: make([]byte, 0, 512)} }}

func getDecoder(data []byte) *decoder {
	d := decoderPool.Get().(*decoder)
	d.data, d.pos, d.depth = data, 0, 0
	return d
}

func putDecoder(d *decoder) {
	d.data = nil // never retain the caller's buffer past the call
	if cap(d.scratch) > maxPooledScratch {
		return
	}
	decoderPool.Put(d)
}

// DecodeDetectResponseBytes parses one DetectResponse from data with
// json.Unmarshal field semantics (see the package comment above).
func DecodeDetectResponseBytes(data []byte) (DetectResponse, error) {
	d := getDecoder(data)
	defer putDecoder(d)
	var resp DetectResponse
	null, err := d.tryNull() // stdlib: a top-level null is an accepted no-op
	if err != nil {
		return DetectResponse{}, err
	}
	if !null {
		if err := d.decodeDetectResponse(&resp); err != nil {
			return DetectResponse{}, err
		}
	}
	if err := d.expectEOF(); err != nil {
		return DetectResponse{}, err
	}
	return resp, nil
}

// DecodeBatchResponseBytes parses one BatchResponse from data.
func DecodeBatchResponseBytes(data []byte) (BatchResponse, error) {
	d := getDecoder(data)
	defer putDecoder(d)
	var resp BatchResponse
	null, err := d.tryNull()
	if err != nil {
		return BatchResponse{}, err
	}
	if !null {
		if err := d.decodeBatchResponse(&resp); err != nil {
			return BatchResponse{}, err
		}
	}
	if err := d.expectEOF(); err != nil {
		return BatchResponse{}, err
	}
	return resp, nil
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("api: decode offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *decoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) expectEOF() error {
	d.skipWS()
	if d.pos != len(d.data) {
		return d.errf("trailing data")
	}
	return nil
}

// peek returns the next non-whitespace byte without consuming it.
func (d *decoder) peek() (byte, error) {
	d.skipWS()
	if d.pos >= len(d.data) {
		return 0, d.errf("unexpected end of input")
	}
	return d.data[d.pos], nil
}

func (d *decoder) consume(c byte) error {
	b, err := d.peek()
	if err != nil {
		return err
	}
	if b != c {
		return d.errf("expected %q, found %q", c, b)
	}
	d.pos++
	return nil
}

// tryNull consumes a null literal if one is next.
func (d *decoder) tryNull() (bool, error) {
	b, err := d.peek()
	if err != nil {
		return false, err
	}
	if b != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

func (d *decoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.errf("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// parseString decodes a JSON string literal into d.scratch and returns
// a copied-out Go string, with stdlib semantics: raw control bytes are
// rejected, invalid UTF-8 and unpaired surrogates become U+FFFD.
func (d *decoder) parseString() (string, error) {
	if err := d.consume('"'); err != nil {
		return "", err
	}
	// Fast path: scan for a literal without escapes or non-ASCII.
	start := d.pos
	for d.pos < len(d.data) {
		b := d.data[d.pos]
		if b == '"' {
			s := string(d.data[start:d.pos])
			d.pos++
			return s, nil
		}
		if b == '\\' || b < 0x20 || b >= utf8.RuneSelf {
			break
		}
		d.pos++
	}
	// Slow path: unescape into scratch.
	buf := d.scratch[:0]
	buf = append(buf, d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		b := d.data[d.pos]
		switch {
		case b == '"':
			d.pos++
			d.scratch = buf
			return string(buf), nil
		case b < 0x20:
			return "", d.errf("invalid control character in string literal")
		case b == '\\':
			d.pos++
			if d.pos >= len(d.data) {
				return "", d.errf("unexpected end of string escape")
			}
			e := d.data[d.pos]
			d.pos++
			switch e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, err := d.hex4()
				if err != nil {
					return "", err
				}
				if utf16.IsSurrogate(r) {
					// A high surrogate followed by \uDC00–\uDFFF combines;
					// anything else is replaced, as stdlib unquote does.
					r2 := rune(utf8.RuneError)
					if d.pos+1 < len(d.data) && d.data[d.pos] == '\\' && d.data[d.pos+1] == 'u' {
						save := d.pos
						d.pos += 2
						lo, err := d.hex4()
						if err != nil {
							return "", err
						}
						if c := utf16.DecodeRune(r, lo); c != utf8.RuneError {
							r2 = c
						} else {
							d.pos = save // re-scan the second escape on its own
						}
					}
					buf = utf8.AppendRune(buf, r2)
				} else {
					buf = utf8.AppendRune(buf, r)
				}
			default:
				return "", d.errf("invalid string escape %q", e)
			}
		case b < utf8.RuneSelf:
			buf = append(buf, b)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, utf8.RuneError)
				d.pos++
				break
			}
			buf = append(buf, d.data[d.pos:d.pos+size]...)
			d.pos += size
		}
	}
	return "", d.errf("unterminated string literal")
}

func (d *decoder) hex4() (rune, error) {
	if len(d.data)-d.pos < 4 {
		return 0, d.errf("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := d.data[d.pos+i]
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, d.errf("invalid \\u escape")
		}
		r = r<<4 + rune(c)
	}
	d.pos += 4
	return r, nil
}

// numberToken validates and consumes one JSON number literal, returning
// its raw bytes.
func (d *decoder) numberToken() ([]byte, error) {
	d.skipWS()
	start := d.pos
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case d.pos < len(d.data) && d.data[d.pos] >= '1' && d.data[d.pos] <= '9':
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
		}
	default:
		return nil, d.errf("invalid number literal")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if d.pos >= len(d.data) || d.data[d.pos] < '0' || d.data[d.pos] > '9' {
			return nil, d.errf("invalid number literal")
		}
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if d.pos >= len(d.data) || d.data[d.pos] < '0' || d.data[d.pos] > '9' {
			return nil, d.errf("invalid number literal")
		}
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
		}
	}
	return d.data[start:d.pos], nil
}

// parseFloatField decodes a number (or null no-op) into *f.
func (d *decoder) parseFloatField(f *float64) error {
	if null, err := d.tryNull(); err != nil || null {
		return err
	}
	tok, err := d.numberToken()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return d.errf("number %s out of range", tok)
	}
	*f = v
	return nil
}

// parseIntField decodes an integer literal (or null no-op) into *n.
// Fractional or exponent forms error, matching encoding/json for ints.
func (d *decoder) parseIntField(n *int) error {
	if null, err := d.tryNull(); err != nil || null {
		return err
	}
	tok, err := d.numberToken()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return d.errf("cannot decode number %s into int", tok)
	}
	*n = int(v)
	return nil
}

func (d *decoder) parseStringField(s *string) error {
	if null, err := d.tryNull(); err != nil || null {
		return err
	}
	v, err := d.parseString()
	if err != nil {
		return err
	}
	*s = v
	return nil
}

func (d *decoder) parseBoolField(b *bool) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 't':
		*b = true
		return d.literal("true")
	case 'f':
		*b = false
		return d.literal("false")
	case 'n':
		return d.literal("null") // no-op, as stdlib
	}
	return d.errf("expected boolean")
}

// skipValue consumes one JSON value of any type, validating syntax.
func (d *decoder) skipValue() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		return d.walkObject(func([]byte) (bool, error) { return false, nil })
	case '[':
		if err := d.enter(); err != nil {
			return err
		}
		d.pos++
		if b, err := d.peek(); err != nil {
			return err
		} else if b == ']' {
			d.pos++
			d.depth--
			return nil
		}
		for {
			if err := d.skipValue(); err != nil {
				return err
			}
			b, err := d.peek()
			if err != nil {
				return err
			}
			d.pos++
			if b == ']' {
				d.depth--
				return nil
			}
			if b != ',' {
				return d.errf("expected ',' or ']' in array")
			}
		}
	case '"':
		_, err := d.parseString()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		_, err := d.numberToken()
		return err
	}
}

func (d *decoder) enter() error {
	d.depth++
	if d.depth > maxDecodeDepth {
		return d.errf("exceeded max nesting depth")
	}
	return nil
}

// walkObject consumes one JSON object, invoking field for each key.
// field returns whether it consumed the key's value; unconsumed values
// are skipped. The key slice aliases d.scratch or d.data — field must
// decide before parsing the value (which may reuse the scratch).
func (d *decoder) walkObject(field func(key []byte) (bool, error)) error {
	if err := d.enter(); err != nil {
		return err
	}
	if err := d.consume('{'); err != nil {
		return err
	}
	if b, err := d.peek(); err != nil {
		return err
	} else if b == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		key, err := d.parseKey()
		if err != nil {
			return err
		}
		if err := d.consume(':'); err != nil {
			return err
		}
		handled, err := field(key)
		if err != nil {
			return err
		}
		if !handled {
			if err := d.skipValue(); err != nil {
				return err
			}
		}
		b, err := d.peek()
		if err != nil {
			return err
		}
		d.pos++
		if b == '}' {
			d.depth--
			return nil
		}
		if b != ',' {
			return d.errf("expected ',' or '}' in object")
		}
	}
}

// parseKey reads an object key as raw bytes. Keys without escapes (the
// overwhelmingly common case) are returned as a subslice of d.data —
// zero copies; escaped keys go through the scratch buffer.
func (d *decoder) parseKey() ([]byte, error) {
	if err := d.consume('"'); err != nil {
		return nil, err
	}
	start := d.pos
	for d.pos < len(d.data) {
		b := d.data[d.pos]
		if b == '"' {
			key := d.data[start:d.pos]
			d.pos++
			return key, nil
		}
		if b == '\\' || b < 0x20 {
			break
		}
		d.pos++
	}
	// Rare: escaped or malformed key. Re-parse via the string machinery.
	d.pos = start - 1
	s, err := d.parseString()
	if err != nil {
		return nil, err
	}
	d.scratch = append(d.scratch[:0], s...)
	return d.scratch, nil
}

// keyIs reports whether key equals name under ASCII case folding —
// the match rule for every field name in this wire format (all
// lowercase ASCII).
func keyIs(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if b >= 'A' && b <= 'Z' {
			b += 'a' - 'A'
		}
		if b != name[i] {
			return false
		}
	}
	return true
}

func (d *decoder) decodeHomograph(m *core.HomographMatch) error {
	return d.walkObject(func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "domain"):
			return true, d.parseStringField(&m.Domain)
		case keyIs(key, "unicode"):
			return true, d.parseStringField(&m.Unicode)
		case keyIs(key, "brand"):
			return true, d.parseStringField(&m.Brand)
		case keyIs(key, "ssim"):
			return true, d.parseFloatField(&m.SSIM)
		}
		return false, nil
	})
}

func (d *decoder) decodeSemantic(m *core.SemanticMatch) error {
	return d.walkObject(func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "domain"):
			return true, d.parseStringField(&m.Domain)
		case keyIs(key, "unicode"):
			return true, d.parseStringField(&m.Unicode)
		case keyIs(key, "brand"):
			return true, d.parseStringField(&m.Brand)
		case keyIs(key, "keyword"):
			return true, d.parseStringField(&m.Keyword)
		}
		return false, nil
	})
}

func (d *decoder) decodeContribution(c *feat.Contribution) error {
	return d.walkObject(func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "feature"):
			return true, d.parseStringField(&c.Feature)
		case keyIs(key, "value"):
			return true, d.parseFloatField(&c.Value)
		case keyIs(key, "impact"):
			return true, d.parseFloatField(&c.Impact)
		}
		return false, nil
	})
}

func (d *decoder) decodeStatistical(m *core.StatMatch) error {
	return d.walkObject(func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "domain"):
			return true, d.parseStringField(&m.Domain)
		case keyIs(key, "unicode"):
			return true, d.parseStringField(&m.Unicode)
		case keyIs(key, "score"):
			return true, d.parseFloatField(&m.Score)
		case keyIs(key, "top"):
			if null, err := d.tryNull(); err != nil || null {
				if null {
					m.Top = nil
				}
				return true, err
			}
			if err := d.consume('['); err != nil {
				return true, err
			}
			if err := d.enter(); err != nil {
				return true, err
			}
			m.Top = []feat.Contribution{}
			if b, err := d.peek(); err != nil {
				return true, err
			} else if b == ']' {
				d.pos++
				d.depth--
				return true, nil
			}
			for {
				var c feat.Contribution
				if err := d.decodeContribution(&c); err != nil {
					return true, err
				}
				m.Top = append(m.Top, c)
				b, err := d.peek()
				if err != nil {
					return true, err
				}
				d.pos++
				if b == ']' {
					d.depth--
					return true, nil
				}
				if b != ',' {
					return true, d.errf("expected ',' or ']' in array")
				}
			}
		}
		return false, nil
	})
}

func (d *decoder) decodeConfidence(c *core.EnsembleConfidence) error {
	return d.walkObject(func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "homograph"):
			return true, d.parseFloatField(&c.Homograph)
		case keyIs(key, "semantic"):
			return true, d.parseFloatField(&c.Semantic)
		case keyIs(key, "statistical"):
			return true, d.parseFloatField(&c.Statistical)
		}
		return false, nil
	})
}

// ptrField decodes either null (→ nil, as stdlib does for pointers) or
// a nested object via decode into a freshly allocated *T.
func ptrField[T any](d *decoder, p **T, decode func(*decoder, *T) error) error {
	if null, err := d.tryNull(); err != nil || null {
		if null {
			*p = nil
		}
		return err
	}
	v := new(T)
	if *p != nil {
		*v = **p // duplicate keys merge into the existing value, as stdlib
	}
	if err := decode(d, v); err != nil {
		return err
	}
	*p = v
	return nil
}

func (d *decoder) decodeDetectResponse(r *DetectResponse) error {
	return d.walkObject(func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "domain"):
			return true, d.parseStringField(&r.Domain)
		case keyIs(key, "unicode"):
			return true, d.parseStringField(&r.Unicode)
		case keyIs(key, "idn"):
			return true, d.parseBoolField(&r.IDN)
		case keyIs(key, "homograph"):
			return true, ptrField(d, &r.Homograph, (*decoder).decodeHomograph)
		case keyIs(key, "semantic"):
			return true, ptrField(d, &r.Semantic, (*decoder).decodeSemantic)
		case keyIs(key, "statistical"):
			return true, ptrField(d, &r.Statistical, (*decoder).decodeStatistical)
		case keyIs(key, "confidence"):
			return true, ptrField(d, &r.Confidence, (*decoder).decodeConfidence)
		case keyIs(key, "suspicion"):
			return true, d.parseStringField(&r.Suspicion)
		case keyIs(key, "flagged"):
			return true, d.parseBoolField(&r.Flagged)
		case keyIs(key, "cached"):
			return true, d.parseBoolField(&r.Cached)
		case keyIs(key, "input"):
			return true, d.parseStringField(&r.Input)
		case keyIs(key, "error"):
			return true, d.parseStringField(&r.Error)
		}
		return false, nil
	})
}

func (d *decoder) decodeBatchResponse(r *BatchResponse) error {
	return d.walkObject(func(key []byte) (bool, error) {
		switch {
		case keyIs(key, "count"):
			return true, d.parseIntField(&r.Count)
		case keyIs(key, "flagged"):
			return true, d.parseIntField(&r.Flagged)
		case keyIs(key, "results"):
			if null, err := d.tryNull(); err != nil || null {
				if null {
					r.Results = nil
				}
				return true, err
			}
			if err := d.consume('['); err != nil {
				return true, err
			}
			if err := d.enter(); err != nil {
				return true, err
			}
			r.Results = []DetectResponse{}
			if b, err := d.peek(); err != nil {
				return true, err
			} else if b == ']' {
				d.pos++
				d.depth--
				return true, nil
			}
			for {
				var item DetectResponse
				if err := d.decodeDetectResponse(&item); err != nil {
					return true, err
				}
				r.Results = append(r.Results, item)
				b, err := d.peek()
				if err != nil {
					return true, err
				}
				d.pos++
				if b == ']' {
					d.depth--
					return true, nil
				}
				if b != ',' {
					return true, d.errf("expected ',' or ']' in array")
				}
			}
		}
		return false, nil
	})
}
