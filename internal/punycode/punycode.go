// Package punycode implements the Bootstring algorithm and its Punycode
// instantiation as specified by RFC 3492. Punycode is the ASCII-compatible
// encoding (ACE) used to carry Internationalized Domain Name labels through
// the DNS: all ASCII code points of a label are copied verbatim, and the
// positions and values of non-ASCII code points are encoded as generalized
// variable-length integers appended after a delimiter.
//
// This package encodes and decodes single labels. Whole-domain conversion,
// the "xn--" ACE prefix and label validation live in package idna.
package punycode

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Bootstring parameters for the Punycode profile (RFC 3492 §5).
const (
	base        = 36
	tmin        = 1
	tmax        = 26
	skew        = 38
	damp        = 700
	initialBias = 72
	initialN    = 128 // first non-ASCII code point
	delimiter   = '-'
)

// maxRune is the highest valid Unicode code point (U+10FFFF).
const maxRune = '\U0010FFFF'

// maxInt bounds the decoder's variable-length integers, which RFC 3492
// computes in 32 bits.
const maxInt = 1<<31 - 1

// Errors returned by Encode and Decode.
var (
	// ErrInvalidRune reports an input code point outside the Unicode range
	// or invalid UTF-8 in the input string.
	ErrInvalidRune = errors.New("punycode: invalid code point in input")
	// ErrOverflow reports that decoding or encoding would exceed the
	// representable integer range (RFC 3492 §6.4).
	ErrOverflow = errors.New("punycode: integer overflow")
	// ErrBadInput reports a malformed encoded string passed to Decode.
	ErrBadInput = errors.New("punycode: malformed input")
)

// adapt is the bias adaptation function of RFC 3492 §6.1.
func adapt(delta, numPoints int, firstTime bool) int {
	if firstTime {
		delta /= damp
	} else {
		delta /= 2
	}
	delta += delta / numPoints
	k := 0
	for delta > ((base-tmin)*tmax)/2 {
		delta /= base - tmin
		k += base
	}
	return k + (base-tmin+1)*delta/(delta+skew)
}

// encodeDigit converts a digit value in [0, base) to its code point:
// 0..25 map to 'a'..'z' and 26..35 map to '0'..'9'.
func encodeDigit(d int) byte {
	switch {
	case d < 26:
		return byte('a' + d)
	case d < 36:
		return byte('0' + d - 26)
	}
	panic("punycode: internal error: digit out of range")
}

// decodeDigit converts a code point to its digit value, accepting both
// cases of letters per RFC 3492 §5. ok is false for non-digit code points.
func decodeDigit(c byte) (d int, ok bool) {
	switch {
	case c >= 'a' && c <= 'z':
		return int(c - 'a'), true
	case c >= 'A' && c <= 'Z':
		return int(c - 'A'), true
	case c >= '0' && c <= '9':
		return int(c-'0') + 26, true
	}
	return 0, false
}

// Encode converts a Unicode label to its Punycode form (without any ACE
// prefix). Labels that are already pure ASCII encode to themselves followed
// by a trailing delimiter per the algorithm; callers that want idempotent
// domain handling should check for non-ASCII content first (package idna
// does). Encode returns ErrInvalidRune for invalid UTF-8 input.
func Encode(label string) (string, error) {
	if !utf8.ValidString(label) {
		return "", ErrInvalidRune
	}
	// Stack buffers cover any DNS label; longer input grows onto the heap.
	var rbuf [64]rune
	var obuf [64]byte
	runes := rbuf[:0]
	for _, r := range label {
		runes = append(runes, r)
	}
	out, err := AppendEncode(obuf[:0], runes)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// AppendEncode is Encode over a decoded label, appending the Punycode
// form to dst: with a large enough dst it allocates nothing, which is
// how package idna checks that an ACE label is canonical.
func AppendEncode(dst []byte, runes []rune) ([]byte, error) {
	output := dst
	basicCount := 0
	for _, r := range runes {
		if r < initialN {
			output = append(output, byte(r))
			basicCount++
		}
	}
	h := basicCount
	if basicCount > 0 {
		output = append(output, delimiter)
	}

	n, delta, bias := initialN, 0, initialBias
	for h < len(runes) {
		// Find the smallest code point >= n among the remaining runes.
		m := rune(maxRune + 1)
		for _, r := range runes {
			if r >= rune(n) && r < m {
				m = r
			}
		}
		if int(m)-n > (int(^uint32(0)>>1)-delta)/(h+1) {
			return dst, ErrOverflow
		}
		delta += (int(m) - n) * (h + 1)
		n = int(m)
		for _, r := range runes {
			if int(r) < n {
				delta++
				if delta < 0 {
					return dst, ErrOverflow
				}
			}
			if int(r) == n {
				q := delta
				for k := base; ; k += base {
					t := k - bias
					if t < tmin {
						t = tmin
					} else if t > tmax {
						t = tmax
					}
					if q < t {
						break
					}
					output = append(output, encodeDigit(t+(q-t)%(base-t)))
					q = (q - t) / (base - t)
				}
				output = append(output, encodeDigit(q))
				bias = adapt(delta, h+1, h == basicCount)
				delta = 0
				h++
			}
		}
		delta++
		n++
	}
	return output, nil
}

// Decode converts a Punycode-encoded label (without any ACE prefix) back to
// its Unicode form. Decoding is case-insensitive in the extended digits per
// RFC 3492; the basic code points are preserved as given.
func Decode(encoded string) (string, error) {
	// Every decoded code point takes at least one input byte.
	output, err := AppendDecode(make([]rune, 0, len(encoded)), encoded)
	if err != nil {
		return "", err
	}
	return string(output), nil
}

// AppendDecode is Decode appending the code points to dst: with a large
// enough dst (len(encoded) free runes always suffice) it allocates
// nothing. On error dst comes back unchanged.
func AppendDecode(dst []rune, encoded string) ([]rune, error) {
	for i := 0; i < len(encoded); i++ {
		if encoded[i] >= 0x80 {
			return dst, fmt.Errorf("%w: non-ASCII byte 0x%02x at %d", ErrBadInput, encoded[i], i)
		}
	}
	// Basic code points are everything before the last delimiter.
	basicEnd := strings.LastIndexByte(encoded, delimiter)
	output := dst
	pos := 0
	if basicEnd >= 0 {
		for i := 0; i < basicEnd; i++ {
			output = append(output, rune(encoded[i]))
		}
		pos = basicEnd + 1
	}

	n, i, bias := initialN, 0, initialBias
	for pos < len(encoded) {
		oldi, w := i, 1
		for k := base; ; k += base {
			if pos >= len(encoded) {
				return dst, fmt.Errorf("%w: truncated variable-length integer", ErrBadInput)
			}
			d, ok := decodeDigit(encoded[pos])
			pos++
			if !ok {
				return dst, fmt.Errorf("%w: invalid digit %q", ErrBadInput, encoded[pos-1])
			}
			// i, w <= maxInt and d < base: the int64 product cannot
			// wrap, so the bound needs no division.
			if int64(i)+int64(d)*int64(w) > maxInt {
				return dst, ErrOverflow
			}
			i += d * w
			t := k - bias
			if t < tmin {
				t = tmin
			} else if t > tmax {
				t = tmax
			}
			if d < t {
				break
			}
			if int64(w)*int64(base-t) > maxInt {
				return dst, ErrOverflow
			}
			w *= base - t
		}
		outLen := len(output) - len(dst) + 1
		bias = adapt(i-oldi, outLen, oldi == 0)
		if i/outLen > int(^uint32(0)>>1)-n {
			return dst, ErrOverflow
		}
		n += i / outLen
		i %= outLen
		if n > maxRune || (n >= 0xD800 && n <= 0xDFFF) {
			return dst, fmt.Errorf("%w: decoded code point U+%04X out of range", ErrBadInput, n)
		}
		if n < initialN {
			return dst, fmt.Errorf("%w: decoded basic code point U+%04X", ErrBadInput, n)
		}
		output = append(output, 0)
		label := output[len(dst):]
		copy(label[i+1:], label[i:])
		label[i] = rune(n)
		i++
	}
	return output, nil
}
