package export

import (
	"encoding/json"
	"fmt"
	"mime"
	"sort"
	"strings"
)

// BatchCodec is the wire-codec seam: everything that turns a Batch into
// request bytes (HTTPSink) or request bytes back into a Batch (the
// collector's ingest handler) flows through one of these. Codecs are
// selected by name on the sender (HTTPSinkConfig.Wire) and by request
// Content-Type on the receiver, so mixed fleets — old JSON edges next to
// binary ones — land in the same dedup/store path.
//
// Implementations must be safe for concurrent use: one codec instance
// serves every request.
type BatchCodec interface {
	// Name is the short knob value ("json", "binary") used by flags and
	// metric labels.
	Name() string
	// ContentType is the exact Content-Type header value this codec
	// encodes as and is dispatched on (parameters are ignored when
	// matching incoming requests).
	ContentType() string
	// AppendBatch appends b's wire encoding to dst and returns the
	// extended buffer. On error dst is returned unextended, so callers
	// can reuse the buffer.
	AppendBatch(dst []byte, b Batch) ([]byte, error)
	// DecodeBatch decodes one complete wire payload. It must validate
	// the wire version (wrapping ErrWireVersion) and must reject torn,
	// truncated or trailing-garbage payloads rather than decode a
	// partial batch.
	DecodeBatch(data []byte) (Batch, error)
}

// Codec names and content types for the two built-in codecs.
const (
	CodecJSON   = "json"
	CodecBinary = "binary"

	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-omg-batch"
)

// codecs is the fixed table of wire codecs, sorted by name.
var codecs = [...]BatchCodec{binaryCodec{}, jsonCodec{}}

// acceptedContentTypes lists, sorted, the content types of every codec in
// the table: what a 415 answer tells the sender ingest takes.
var acceptedContentTypes = func() []string {
	cts := make([]string, len(codecs))
	for i, c := range codecs {
		cts[i] = c.ContentType()
	}
	sort.Strings(cts)
	return cts
}()

// Codec returns the codec named name. The empty name resolves to the
// JSON codec, so zero-value configs keep today's wire format.
func Codec(name string) (BatchCodec, error) {
	if name == "" {
		name = CodecJSON
	}
	for _, c := range codecs {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("export: unknown wire codec %q (have %s)", name, strings.Join(CodecNames(), ", "))
}

// CodecNames lists the codec names, sorted, for flag help and error
// messages.
func CodecNames() []string {
	names := make([]string, len(codecs))
	for i, c := range codecs {
		names[i] = c.Name()
	}
	return names
}

// CodecForContentType resolves a request Content-Type header to its
// codec. Media-type parameters (charset etc.) are ignored; an empty header
// defaults to JSON, which is what pre-codec senders posted.
func CodecForContentType(ct string) (BatchCodec, bool) {
	mt := ContentTypeJSON
	if strings.TrimSpace(ct) != "" {
		parsed, _, err := mime.ParseMediaType(ct)
		if err != nil {
			return nil, false
		}
		mt = parsed
	}
	for _, c := range codecs {
		if c.ContentType() == mt {
			return c, true
		}
	}
	return nil, false
}

// jsonCodec adapts the reflection-free JSON wire format to the
// BatchCodec seam: AppendBatchJSON on the way out, and on the way in
// parseBatchJSON for exactly the bytes AppendBatchJSON writes, with
// encoding/json for a body of any other shape. Both directions are
// differentially fuzzed against encoding/json (FuzzAppendBatchJSON,
// FuzzDecodeBatch), so the wire and what a body decodes to are those of
// the pre-seam format.
type jsonCodec struct{}

func (jsonCodec) Name() string        { return CodecJSON }
func (jsonCodec) ContentType() string { return ContentTypeJSON }

func (jsonCodec) AppendBatch(dst []byte, b Batch) ([]byte, error) {
	return AppendBatchJSON(dst, b)
}

// DecodeBatch decodes one JSON batch and validates its version. The
// whole payload must be one batch object: trailing whitespace is allowed,
// trailing garbage is an error. Names intern through the binary decoder's
// pooled table, so a steady-state batch of the canonical shape allocates
// only its violations slice.
func (jsonCodec) DecodeBatch(data []byte) (Batch, error) {
	d := binDecoderPool.Get().(*binDecoder)
	b, ok := parseBatchJSON(data, &d.names)
	binDecoderPool.Put(d)
	if !ok {
		var err error
		if b, err = unmarshalBatch(data); err != nil {
			return Batch{}, err
		}
	}
	if err := checkBatchVersion(b.Version); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// unmarshalBatch decodes a body parseBatchJSON declined. It is its own
// function so that encoding/json, which makes its target escape to the
// heap, costs the parsed path nothing.
func unmarshalBatch(data []byte) (Batch, error) {
	var b Batch
	if err := json.Unmarshal(data, &b); err != nil {
		return Batch{}, fmt.Errorf("export: decode batch: %w", err)
	}
	return b, nil
}
