package export

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"omg/internal/assertion"
)

// Binary frame layout (all multi-byte integers little-endian):
//
//	offset  size  field
//	0       4     magic "OMGB"
//	4       1     wire version (same [MinWireVersion, WireVersion] window
//	              as the JSON "version" field)
//	5       1     flags (bit 0: payload is DEFLATE-compressed — only
//	              older senders set it; other bits reserved, must be zero)
//	6       4     payload length — must equal exactly the bytes that
//	              follow the 14-byte header, so torn, truncated and
//	              trailing-garbage frames all fail structurally
//	10      4     CRC-32C (Castagnoli) of the stored (post-compression)
//	              payload
//	14      ...   payload
//
// Payload (after decompression when flag bit 0 is set):
//
//	uvarint source length, source bytes
//	uvarint seq
//	uvarint violation count + 1 (0 encodes a nil slice, preserving the
//	        JSON null-vs-[] distinction)
//	per violation: assertion.AppendViolationBinary's layout (the disk
//	        store's record bodies hold the same bytes)
const (
	binMagic       = "OMGB"
	binHeaderLen   = 14
	binFlagDeflate = 0x01
	binKnownFlags  = binFlagDeflate
	// binMinViolation bounds how small one encoded violation can be
	// (2 one-byte string lengths + 3 one-byte varints + 2 float64s), used
	// to reject hostile violation counts before allocating for them.
	binMinViolation = 21
	// binMaxPayload caps what a compressed frame may inflate to, so a
	// small hostile frame cannot balloon past the collector's request
	// body limit by orders of magnitude.
	binMaxPayload = 256 << 20
)

// ErrBinaryFrame reports an invalid binary frame: bad magic, torn or
// truncated body, CRC mismatch, unknown flags, payload bytes left over
// after the batch, or a non-finite Time/Severity (which AppendBatch never
// writes). Version-window violations are ErrWireVersion
// instead, so receivers can count the two causes apart.
var ErrBinaryFrame = errors.New("export: malformed binary frame")

var binCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// binaryCodec is the length-prefixed binary wire format. It encodes
// plain frames only; DecodeBatch also inflates the DEFLATE-flagged frames
// older senders wrote, so one stateless instance serves every request.
type binaryCodec struct{}

func (binaryCodec) Name() string        { return CodecBinary }
func (binaryCodec) ContentType() string { return ContentTypeBinary }

// AppendBatch appends b as one binary frame. Like AppendBatchJSON it
// returns dst unextended on error (a version outside one byte, or a
// non-finite Time/Severity — the same values the JSON encoder refuses, so
// the two codecs accept identical batches).
func (binaryCodec) AppendBatch(dst []byte, b Batch) ([]byte, error) {
	start := len(dst)
	if b.Version < 0 || b.Version > 255 {
		return dst, fmt.Errorf("export: binary codec: version %d does not fit the one-byte frame field", b.Version)
	}
	dst = append(dst, binMagic...)
	dst = append(dst, byte(b.Version), 0, 0, 0, 0, 0, 0, 0, 0, 0)
	dst, err := appendBinaryPayload(dst, b)
	if err != nil {
		return dst[:start], err
	}
	payload := dst[start+binHeaderLen:]
	if len(payload) > binMaxPayload {
		return dst[:start], fmt.Errorf("export: binary codec: payload %d bytes exceeds %d-byte frame cap", len(payload), binMaxPayload)
	}
	binary.LittleEndian.PutUint32(dst[start+6:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+10:], crc32.Checksum(payload, binCastagnoli))
	return dst, nil
}

// appendBinaryPayload appends the uncompressed batch body.
func appendBinaryPayload(dst []byte, b Batch) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(b.Source)))
	dst = append(dst, b.Source...)
	dst = binary.AppendUvarint(dst, b.Seq)
	if b.Violations == nil {
		return binary.AppendUvarint(dst, 0), nil
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.Violations))+1)
	for i := range b.Violations {
		var err error
		if dst, err = assertion.AppendViolationBinary(dst, &b.Violations[i]); err != nil {
			return dst, fmt.Errorf("export: binary codec: violation %d: %w", i, err)
		}
	}
	return dst, nil
}

// DecodeBatch decodes one complete frame. Structural failures (torn or
// truncated frames, trailing bytes, CRC mismatch, unknown flags) and
// non-finite floats wrap ErrBinaryFrame and never yield a partial batch;
// an out-of-window version wraps ErrWireVersion.
func (binaryCodec) DecodeBatch(data []byte) (Batch, error) {
	if len(data) < binHeaderLen {
		return Batch{}, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrBinaryFrame, len(data), binHeaderLen)
	}
	if string(data[:4]) != binMagic {
		return Batch{}, fmt.Errorf("%w: bad magic %q", ErrBinaryFrame, data[:4])
	}
	flags := data[5]
	if flags&^byte(binKnownFlags) != 0 {
		return Batch{}, fmt.Errorf("%w: unknown flag bits 0x%02x", ErrBinaryFrame, flags&^byte(binKnownFlags))
	}
	stored := data[binHeaderLen:]
	if n := binary.LittleEndian.Uint32(data[6:10]); uint64(n) != uint64(len(stored)) {
		return Batch{}, fmt.Errorf("%w: header says %d payload bytes, frame carries %d (torn frame or trailing bytes)", ErrBinaryFrame, n, len(stored))
	}
	if sum := crc32.Checksum(stored, binCastagnoli); sum != binary.LittleEndian.Uint32(data[10:14]) {
		return Batch{}, fmt.Errorf("%w: payload CRC mismatch", ErrBinaryFrame)
	}
	version := int(data[4])
	if err := checkBatchVersion(version); err != nil {
		return Batch{}, err
	}
	d := binDecoderPool.Get().(*binDecoder)
	defer binDecoderPool.Put(d)
	payload := stored
	if flags&binFlagDeflate != 0 {
		var err error
		if payload, err = d.inflate(stored); err != nil {
			return Batch{}, err
		}
	}
	b, err := d.decodePayload(payload)
	if err != nil {
		return Batch{}, err
	}
	b.Version = version
	return b, nil
}

// binDecoder holds the per-decode scratch state the pool recycles: the
// string intern table (violation batches repeat a handful of assertion
// and stream names thousands of times), the inflate machinery, and the
// decompression buffer.
type binDecoder struct {
	names   assertion.Interner
	br      bytes.Reader
	fr      io.ReadCloser
	scratch []byte
}

var binDecoderPool = sync.Pool{New: func() any { return new(binDecoder) }}

// inflate decompresses stored into the decoder's scratch buffer, bounded
// by binMaxPayload.
func (d *binDecoder) inflate(stored []byte) ([]byte, error) {
	d.br.Reset(stored)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.br)
	} else if err := d.fr.(flate.Resetter).Reset(&d.br, nil); err != nil {
		return nil, fmt.Errorf("%w: reset inflate: %v", ErrBinaryFrame, err)
	}
	buf := d.scratch[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := d.fr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > binMaxPayload {
			d.scratch = buf
			return nil, fmt.Errorf("%w: compressed payload inflates past the %d-byte cap", ErrBinaryFrame, binMaxPayload)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			d.scratch = buf
			return nil, fmt.Errorf("%w: inflate payload: %v", ErrBinaryFrame, err)
		}
	}
	d.scratch = buf
	return buf, nil
}

// decodePayload parses the (decompressed) batch body. Steady state it
// allocates only the violations slice: strings intern against the pooled
// table and every fixed-width field decodes in place.
func (d *binDecoder) decodePayload(p []byte) (Batch, error) {
	var b Batch
	src, p, err := binReadBytes(p, "source")
	if err != nil {
		return Batch{}, err
	}
	b.Source = d.names.Intern(src)
	seq, p, err := binReadUvarint(p, "seq")
	if err != nil {
		return Batch{}, err
	}
	b.Seq = seq
	nPlus1, p, err := binReadUvarint(p, "violation count")
	if err != nil {
		return Batch{}, err
	}
	if nPlus1 == 0 {
		if len(p) != 0 {
			return Batch{}, fmt.Errorf("%w: %d trailing payload bytes after batch", ErrBinaryFrame, len(p))
		}
		return b, nil
	}
	count := nPlus1 - 1
	if count > uint64(len(p)/binMinViolation)+1 {
		return Batch{}, fmt.Errorf("%w: violation count %d exceeds what %d payload bytes can hold", ErrBinaryFrame, count, len(p))
	}
	vs := make([]assertion.Violation, count)
	for i := range vs {
		if p, err = assertion.DecodeViolationBinary(p, &vs[i], &d.names); err != nil {
			return Batch{}, fmt.Errorf("%w: violation %d: %v", ErrBinaryFrame, i, err)
		}
	}
	if len(p) != 0 {
		return Batch{}, fmt.Errorf("%w: %d trailing payload bytes after batch", ErrBinaryFrame, len(p))
	}
	b.Violations = vs
	return b, nil
}

// binReadUvarint consumes one uvarint from p.
func binReadUvarint(p []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, fmt.Errorf("%w: truncated %s", ErrBinaryFrame, what)
	}
	return v, p[n:], nil
}

// binReadBytes consumes one length-prefixed byte string from p. The
// error message is formatted only on failure: this runs twice per
// violation, so nothing on the success path may allocate.
func binReadBytes(p []byte, what string) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 {
		return nil, p, fmt.Errorf("%w: truncated %s length", ErrBinaryFrame, what)
	}
	p = p[sz:]
	if n > uint64(len(p)) {
		return nil, p, fmt.Errorf("%w: %s length %d exceeds remaining %d payload bytes", ErrBinaryFrame, what, n, len(p))
	}
	return p[:n], p[n:], nil
}
