package assertion

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file holds the two violation encodings, both reflection-free and
// both appending into a caller-owned buffer: the JSON one for whatever a
// human or another tool may read (JSONL sink, JSON wire batches, SSE tail,
// query answers), and the binary one for what only this program reads —
// the binary wire frame's per-violation layout and, behind one tag byte,
// the disk store's record body (see AppendViolationBinary). Each has its
// reader here too: DecodeViolationBinary for the binary layout, and
// ParseViolationsJSON, a reflection-free parser of exactly the JSON the
// encoder writes, which leaves every other shape to encoding/json (see
// the comment above it).
//
// The observe→record→export hot path encodes every violation at least
// once, and encoding/json pays reflection plus an intermediate allocation
// per Marshal call. AppendViolationJSON writes the same bytes by hand, so
// steady-state encoding costs no allocations at all.
//
// The output is byte-identical to encoding/json's Marshal of a Violation —
// field order, omitempty behaviour, string escaping (including HTML
// escaping, � replacement of invalid UTF-8 and U+2028/U+2029), float
// formatting, and the refusal to encode NaN/Inf. FuzzAppendViolationJSON
// differentially fuzzes the two encoders against each other; any change to
// the Violation struct must keep this encoder and the parser in sync (the
// fuzzers and TestAppendViolationJSONCoversAllFields fail loudly if either
// drifts).

const jsonHex = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal, replicating
// encoding/json's default (HTML-escaping) string encoder byte for byte.
// It is exported for the sibling wire encoder (export.AppendBatchJSON),
// which hand-encodes the envelope around the violations this package
// encodes.
func AppendJSONString(dst []byte, s string) []byte {
	return appendJSONString(dst, s)
}

func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			// Safe ASCII: printable, not a quote, backslash or HTML chief
			// troublemaker (<, >, & are escaped like encoding/json does by
			// default, so the bytes stay safe to splice into HTML/JSONP).
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
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
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[b>>4], jsonHex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f in encoding/json's float format: %f except for
// very small or very large magnitudes, which use %e with the exponent's
// leading zero stripped (1e-07 encodes as 1e-7). NaN and infinities are
// rejected, exactly as json.Marshal rejects them.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if !isFinite(f) {
		return dst, fmt.Errorf("assertion: unsupported JSON value: %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendViolationJSON appends v's JSON object to dst and returns the
// extended buffer, without reflection and without allocating when dst has
// capacity. The bytes are identical to json.Marshal(v); on error (a NaN or
// infinite Time/Severity, which JSON cannot represent) dst is returned
// unextended, so a partially written object never reaches the buffer.
func AppendViolationJSON(dst []byte, v Violation) ([]byte, error) {
	start := len(dst)
	var err error
	dst = append(dst, `{"assertion":`...)
	dst = appendJSONString(dst, v.Assertion)
	if v.Stream != "" {
		dst = append(dst, `,"stream":`...)
		dst = appendJSONString(dst, v.Stream)
	}
	dst = append(dst, `,"sample_index":`...)
	dst = strconv.AppendInt(dst, int64(v.SampleIndex), 10)
	dst = append(dst, `,"time":`...)
	if dst, err = appendJSONFloat(dst, v.Time); err != nil {
		return dst[:start], err
	}
	dst = append(dst, `,"severity":`...)
	if dst, err = appendJSONFloat(dst, v.Severity); err != nil {
		return dst[:start], err
	}
	if v.IngestUnix != 0 {
		dst = append(dst, `,"ingest_unix":`...)
		dst = strconv.AppendInt(dst, v.IngestUnix, 10)
	}
	if v.ObservedUnixNano != 0 {
		dst = append(dst, `,"observed_unix_nano":`...)
		dst = strconv.AppendInt(dst, v.ObservedUnixNano, 10)
	}
	return append(dst, '}'), nil
}

// AppendViolationsJSON appends vs as a JSON array (nil encodes as null,
// like encoding/json encodes a nil slice). It is the shared body of
// export's batch encoder.
func AppendViolationsJSON(dst []byte, vs []Violation) ([]byte, error) {
	if vs == nil {
		return append(dst, `null`...), nil
	}
	start := len(dst)
	var err error
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = AppendViolationJSON(dst, v); err != nil {
			return dst[:start], err
		}
	}
	return append(dst, ']'), nil
}

// Binary violation layout (integers little-endian or varint, strings
// 8-bit clean):
//
//	uvarint assertion length, assertion bytes
//	uvarint stream length, stream bytes
//	varint  sample_index
//	8 bytes float64 time (IEEE-754 bits)
//	8 bytes float64 severity
//	varint  ingest_unix
//	varint  observed_unix_nano
//
// It is written in two places and read back by one decoder: the binary
// wire frame (export's binary codec) carries a run of these after its batch
// header, and a disk record body (store.SegmentStore) is one of them
// behind ViolationRecordTag. Both refuse a non-finite Time or Severity on
// the way in and on the way out — what AppendViolationJSON cannot write,
// no encoding of a violation carries. FuzzViolationRecord and export's
// FuzzBinaryRoundTrip fuzz it; TestViolationBinaryCoversAllFields fails
// when Violation gains a field this layout does not know.

// ErrViolationEncoding reports bytes that are not a binary violation:
// truncated or overlong fields, a non-finite Time or Severity, an unknown
// record tag, or bytes left over after a record.
var ErrViolationEncoding = errors.New("assertion: malformed binary violation")

// ViolationRecordTag is the first byte of a binary record body. It is not
// '{', which is how a reader tells a record from the JSON bodies older
// stores wrote.
const ViolationRecordTag byte = 0x01

// isFinite reports whether JSON could represent f.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// AppendViolationBinary appends v in the binary layout. It allocates
// nothing when dst has capacity; on error (a NaN or infinite Time or
// Severity, exactly what AppendViolationJSON refuses) dst is returned
// unextended.
func AppendViolationBinary(dst []byte, v *Violation) ([]byte, error) {
	if !isFinite(v.Time) || !isFinite(v.Severity) {
		return dst, fmt.Errorf("assertion: unsupported value: time %v, severity %v (NaN or Inf)", v.Time, v.Severity)
	}
	dst = binary.AppendUvarint(dst, uint64(len(v.Assertion)))
	dst = append(dst, v.Assertion...)
	dst = binary.AppendUvarint(dst, uint64(len(v.Stream)))
	dst = append(dst, v.Stream...)
	dst = binary.AppendVarint(dst, int64(v.SampleIndex))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Time))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Severity))
	dst = binary.AppendVarint(dst, v.IngestUnix)
	return binary.AppendVarint(dst, v.ObservedUnixNano), nil
}

// AppendViolationRecord appends v as a record body: ViolationRecordTag,
// then the binary layout. Same error contract as AppendViolationBinary.
func AppendViolationRecord(dst []byte, v *Violation) ([]byte, error) {
	out, err := AppendViolationBinary(append(dst, ViolationRecordTag), v)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// Interner deduplicates the strings a decoder produces: violations repeat
// a handful of assertion and stream names thousands of times, and one
// table per decode (a pooled wire decoder) makes each distinct name one
// allocation. The zero value is ready to use; it is not
// safe for concurrent use.
type Interner struct{ m map[string]string }

// internCap bounds the table so a hostile stream of unique names cannot
// grow it without limit; past the cap strings still decode, they just
// allocate.
const internCap = 4096

// Intern returns b as a string, reusing the previous allocation for a
// name seen before. The map lookup on string(b) does not allocate.
func (in *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if in.m == nil {
		in.m = make(map[string]string, 64)
	}
	if len(in.m) < internCap {
		in.m[s] = s
	}
	return s
}

// DecodeViolationBinary decodes one violation in the binary layout from
// the front of p into v, interning its names, and returns the bytes after
// it. Errors wrap ErrViolationEncoding; v is unspecified after one. With
// the names already interned it allocates nothing.
func DecodeViolationBinary(p []byte, v *Violation, in *Interner) ([]byte, error) {
	name, stream, p, err := decodeViolationFields(p, v)
	if err == nil {
		v.Assertion, v.Stream = in.Intern(name), in.Intern(stream)
	}
	return p, err
}

// decodeViolationFields decodes one violation in the binary layout from
// the front of p into every field of v but its names, which it returns as
// subslices of p, and returns the bytes after it.
func decodeViolationFields(p []byte, v *Violation) (name, stream, rest []byte, err error) {
	if name, p, err = readBinaryString(p, "assertion"); err != nil {
		return nil, nil, p, err
	}
	if stream, p, err = readBinaryString(p, "stream"); err != nil {
		return nil, nil, p, err
	}
	sample, p, err := readBinaryVarint(p, "sample_index")
	if err != nil {
		return nil, nil, p, err
	}
	v.SampleIndex = int(sample)
	if len(p) < 16 {
		return nil, nil, p, fmt.Errorf("%w: truncated float fields", ErrViolationEncoding)
	}
	v.Time = math.Float64frombits(binary.LittleEndian.Uint64(p))
	v.Severity = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
	p = p[16:]
	if !isFinite(v.Time) || !isFinite(v.Severity) {
		// The encoder's rule, enforced on bytes built outside this
		// process: what no JSON body can carry, no binary one may.
		return nil, nil, p, fmt.Errorf("%w: non-finite time or severity", ErrViolationEncoding)
	}
	if v.IngestUnix, p, err = readBinaryVarint(p, "ingest_unix"); err != nil {
		return nil, nil, p, err
	}
	v.ObservedUnixNano, p, err = readBinaryVarint(p, "observed_unix_nano")
	return name, stream, p, err
}

// DecodeViolationRecord decodes a whole record body — ViolationRecordTag,
// one binary violation, nothing after it — into every field of v but its
// names, which it returns as subslices of body for the caller to keep its
// own way (a store keeps them as ids into its name table). Any other
// first byte is refused by name rather than guessed at. It allocates
// nothing.
func DecodeViolationRecord(body []byte, v *Violation) (name, stream []byte, err error) {
	if len(body) == 0 {
		return nil, nil, fmt.Errorf("%w: empty record body", ErrViolationEncoding)
	}
	if body[0] != ViolationRecordTag {
		return nil, nil, fmt.Errorf("%w: unknown record tag 0x%02x", ErrViolationEncoding, body[0])
	}
	name, stream, rest, err := decodeViolationFields(body[1:], v)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after the record", ErrViolationEncoding, len(rest))
	}
	return name, stream, nil
}

// readBinaryVarint consumes one signed varint from p. The error is
// formatted only on failure: nothing on the success path may allocate.
func readBinaryVarint(p []byte, what string) (int64, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, p, fmt.Errorf("%w: truncated %s", ErrViolationEncoding, what)
	}
	return v, p[n:], nil
}

// readBinaryString consumes one length-prefixed byte string from p.
func readBinaryString(p []byte, what string) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return nil, p, fmt.Errorf("%w: truncated %s length", ErrViolationEncoding, what)
	}
	p = p[sz:]
	if n > uint64(len(p)) {
		return nil, p, fmt.Errorf("%w: %s length %d exceeds remaining %d bytes", ErrViolationEncoding, what, n, len(p))
	}
	return p[:n], p[n:], nil
}

// The JSON parser below reads back exactly the bytes AppendViolationJSON
// and AppendViolationsJSON write, without reflection: keys in the
// encoder's order with no whitespace, strings with no escape, numbers in
// JSON's grammar. It is a fast path, not a second JSON decoder: anything
// else — reordered, duplicate or unknown keys, an escape, a byte below
// 0x20, invalid UTF-8, 1.0 where an integer belongs, an overflowing
// number — makes it decline (ok false), and the caller decodes with
// encoding/json instead. What it takes, encoding/json decodes to the same
// value: strings carry the same bytes, and every number has the value of
// the strconv call encoding/json makes (checked against JSON's grammar
// first, which strconv alone is looser than). FuzzDecodeBatch in
// internal/export holds the two to that.

// minViolationJSON is the shortest object parseViolationJSON takes: a
// batch of n violations is at least n times this long.
const minViolationJSON = len(`{"assertion":"","sample_index":0,"time":0,"severity":0}`)

// CutJSONString parses the JSON string literal p starts with and returns
// its contents and the bytes after it. It declines (ok false) a string
// with an escape, a control byte or invalid UTF-8, and an unterminated
// one.
func CutJSONString(p []byte) (s, rest []byte, ok bool) {
	if len(p) == 0 || p[0] != '"' {
		return nil, p, false
	}
	ascii := true
	for i := 1; i < len(p); i++ {
		switch c := p[i]; {
		case c == '"':
			if s = p[1:i]; !ascii && !utf8.Valid(s) {
				return nil, p, false
			}
			return s, p[i+1:], true
		case c < 0x20 || c == '\\':
			return nil, p, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, p, false
}

// cutJSONNumber returns the JSON number literal p starts with, and
// whether it is an integer (no fraction, no exponent).
func cutJSONNumber(p []byte) (num, rest []byte, integer, ok bool) {
	i := 0
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && p[i] >= '1' && p[i] <= '9':
		i = skipDigits(p, i+1)
	default:
		return nil, p, false, false
	}
	integer = true
	if i < len(p) && p[i] == '.' {
		j := skipDigits(p, i+1)
		if j == i+1 {
			return nil, p, false, false
		}
		i, integer = j, false
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		i++
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		j := skipDigits(p, i)
		if j == i {
			return nil, p, false, false
		}
		i, integer = j, false
	}
	return p[:i], p[i:], integer, true
}

func skipDigits(p []byte, i int) int {
	for i < len(p) && p[i] >= '0' && p[i] <= '9' {
		i++
	}
	return i
}

// CutJSONInt parses the JSON integer p starts with, as encoding/json
// decodes one into a signed integer of bitSize bits, and returns the
// bytes after it. A fraction, an exponent or an overflow declines.
func CutJSONInt(p []byte, bitSize int) (int64, []byte, bool) {
	num, rest, integer, ok := cutJSONNumber(p)
	if !ok || !integer {
		return 0, p, false
	}
	if bitSize == 64 && len(num) <= 18 { // too short to overflow
		if num[0] == '-' {
			return -int64(sumDigits(num[1:])), rest, true
		}
		return int64(sumDigits(num)), rest, true
	}
	n, err := strconv.ParseInt(string(num), 10, bitSize)
	return n, rest, err == nil
}

// CutJSONUint is CutJSONInt for an unsigned 64-bit field: a minus sign
// declines too, as it fails encoding/json.
func CutJSONUint(p []byte) (uint64, []byte, bool) {
	num, rest, integer, ok := cutJSONNumber(p)
	if !ok || !integer {
		return 0, p, false
	}
	if num[0] != '-' && len(num) <= 19 { // too short to overflow
		return sumDigits(num), rest, true
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	return n, rest, err == nil
}

// sumDigits is the value of a run of decimal digits too short to
// overflow; the strconv calls above take the longer ones.
func sumDigits(digits []byte) uint64 {
	var n uint64
	for _, c := range digits {
		n = n*10 + uint64(c-'0')
	}
	return n
}

// cutJSONFloat parses the JSON number p starts with into a float64 as
// encoding/json does; out of range declines.
func cutJSONFloat(p []byte) (float64, []byte, bool) {
	num, rest, _, ok := cutJSONNumber(p)
	if !ok {
		return 0, p, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, rest, err == nil
}

// parseViolationJSON parses one violation object, in exactly the shape
// AppendViolationJSON writes, from the front of p into v, interning its
// names, and returns the bytes after it. ok false means p does not start
// with that shape (see the parser's comment above): v is then
// unspecified, and the caller decodes with encoding/json. With the names
// already interned it allocates nothing.
func parseViolationJSON(p []byte, v *Violation, in *Interner) (rest []byte, ok bool) {
	var s []byte
	if p, ok = bytes.CutPrefix(p, []byte(`{"assertion":`)); !ok {
		return p, false
	}
	if s, p, ok = CutJSONString(p); !ok {
		return p, false
	}
	v.Assertion, v.Stream = in.Intern(s), ""
	if q, ok := bytes.CutPrefix(p, []byte(`,"stream":`)); ok {
		if s, p, ok = CutJSONString(q); !ok {
			return p, false
		}
		v.Stream = in.Intern(s)
	}
	var n int64
	if p, ok = bytes.CutPrefix(p, []byte(`,"sample_index":`)); !ok {
		return p, false
	}
	if n, p, ok = CutJSONInt(p, strconv.IntSize); !ok {
		return p, false
	}
	v.SampleIndex = int(n)
	if p, ok = bytes.CutPrefix(p, []byte(`,"time":`)); !ok {
		return p, false
	}
	if v.Time, p, ok = cutJSONFloat(p); !ok {
		return p, false
	}
	if p, ok = bytes.CutPrefix(p, []byte(`,"severity":`)); !ok {
		return p, false
	}
	if v.Severity, p, ok = cutJSONFloat(p); !ok {
		return p, false
	}
	v.IngestUnix, v.ObservedUnixNano = 0, 0
	if q, ok := bytes.CutPrefix(p, []byte(`,"ingest_unix":`)); ok {
		if v.IngestUnix, p, ok = CutJSONInt(q, 64); !ok {
			return p, false
		}
	}
	if q, ok := bytes.CutPrefix(p, []byte(`,"observed_unix_nano":`)); ok {
		if v.ObservedUnixNano, p, ok = CutJSONInt(q, 64); !ok {
			return p, false
		}
	}
	return bytes.CutPrefix(p, []byte(`}`))
}

// ParseViolationsJSON parses a violation array — null, [] or [<v>,…],
// in exactly the shape AppendViolationsJSON writes — from the front of p
// and returns it and the bytes after it, null as a nil slice and [] as an
// empty one, as encoding/json decodes them. The slice is allocated once,
// sized by the objects p can hold. ok false declines, as
// parseViolationJSON does.
func ParseViolationsJSON(p []byte, in *Interner) (vs []Violation, rest []byte, ok bool) {
	if rest, ok = bytes.CutPrefix(p, []byte(`null`)); ok {
		return nil, rest, true
	}
	if rest, ok = bytes.CutPrefix(p, []byte(`[]`)); ok {
		return []Violation{}, rest, true
	}
	if p, ok = bytes.CutPrefix(p, []byte(`[`)); !ok {
		return nil, p, false
	}
	n := min(bytes.Count(p, []byte(`{"assertion":`)), len(p)/minViolationJSON)
	vs = make([]Violation, 0, n)
	for len(vs) < n {
		vs = vs[:len(vs)+1]
		if p, ok = parseViolationJSON(p, &vs[len(vs)-1], in); !ok {
			return nil, p, false
		}
		if rest, ok = bytes.CutPrefix(p, []byte(`]`)); ok {
			return vs, rest, true
		}
		if p, ok = bytes.CutPrefix(p, []byte(`,`)); !ok {
			return nil, p, false
		}
	}
	return nil, p, false
}
