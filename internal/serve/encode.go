package serve

import (
	"strconv"
	"unicode/utf8"

	"omega"
)

// The row encoder: answer rows appended to a byte slice as NDJSON lines,
// byte for byte what encoding/json writes for
//
//	struct {
//		Vars   []string       `json:"vars"`
//		Labels []string       `json:"labels"`
//		Nodes  []omega.NodeID `json:"nodes"`
//		Dist   int            `json:"dist"`
//	}
//
// followed by a newline (HTML escaping on, as json.Encoder has it), without
// reflection, interface boxing or an allocation per row. encode_test.go pins
// the identity, FuzzAppendRow hunts for inputs that break it.

// verbatim marks the bytes encoding/json copies into a string unescaped:
// printable ASCII and DEL, minus the quote, the backslash and the three
// characters HTML escaping rewrites. Everything else — control bytes and any
// byte of a multi-byte rune — takes the slow path.
var verbatim = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range []byte{'"', '\\', '<', '>', '&'} {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string. Node labels are almost always
// plain ASCII, so the common case is one scan and one copy.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	i := 0
	for i < len(s) && verbatim[s[i]] {
		i++
	}
	if i < len(s) {
		dst = appendEscaped(dst, s, i)
	} else {
		dst = append(dst, s...)
	}
	return append(dst, '"')
}

// appendEscaped appends s, whose first byte needing attention is at i, with
// encoding/json's escapes: \" \\ \b \f \n \r \t, \u00XX for the other control
// bytes and for < > &, \u2028 and \u2029 for the line and paragraph
// separators, \ufffd for each byte of invalid UTF-8.
func appendEscaped(dst []byte, s string, i int) []byte {
	start := 0
	for i < len(s) {
		b := s[i]
		if b < utf8.RuneSelf {
			if verbatim[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// appendRowPrefix appends the part of a row line that is the same for every
// row of a response — {"vars":[…],"labels":[ — so it is encoded once.
func appendRowPrefix(dst []byte, vars []string) []byte {
	dst = append(dst, `{"vars":[`...)
	for i, v := range vars {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, v)
	}
	return append(dst, `],"labels":[`...)
}

// appendRow appends one answer row as an NDJSON line: the response's prefix
// (see appendRowPrefix), then the row's labels, node ids and distance.
func appendRow(dst, prefix []byte, labels []string, nodes []omega.NodeID, dist int) []byte {
	dst = append(dst, prefix...)
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, l)
	}
	dst = append(dst, `],"nodes":[`...)
	for i, n := range nodes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	dst = append(dst, `],"dist":`...)
	dst = strconv.AppendInt(dst, int64(dist), 10)
	return append(dst, '}', '\n')
}
