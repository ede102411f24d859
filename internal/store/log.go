package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// FrameHeader is what every frame starts with: the body's length, then its
// CRC-32 (IEEE), both little-endian uint32. The owner's fixed header, if
// any, follows it, and the body follows that.
const FrameHeader = 8

// maxRecordBytes bounds a single frame body on replay; a length prefix
// beyond it means the frame header itself is garbage.
const maxRecordBytes = 32 << 20

// Durability is how far RecordLog.Write has taken a record when it
// returns, and with it the damage rule its replay applies (see the package
// comment).
type Durability int

const (
	// WriteOnly hands each write to the OS and no further: the record
	// survives a process crash, and reaches the disk at the owner's next
	// Sync.
	WriteOnly Durability = iota
	// SyncEach fsyncs every write, and checks that the file is still
	// linked at its path, before Write returns.
	SyncEach
)

// RecordLog is one append-only file of frames; see the package comment
// for the format and the damage rules. Path, Hdr and Level configure it;
// it is not open for writing until Open, Create or Replace. A RecordLog is
// not safe for concurrent use: its owner serialises every call.
type RecordLog struct {
	Path  string
	Hdr   int // the owner's fixed header bytes in every frame
	Level Durability

	f     *os.File
	id    os.FileInfo // the file f was opened as (SyncEach)
	size  int64       // bytes of whole frames written
	frame []byte      // Append's scratch frame
}

// sealFrame fills in the length and CRC of frame, a whole frame of a log
// with hdr header bytes whose owner has written its header and body in
// place.
func sealFrame(frame []byte, hdr int) {
	body := frame[FrameHeader+hdr:]
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
}

// AppendFrame appends body to dst as one frame with no owner header.
func AppendFrame(dst, body []byte) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, FrameHeader)...), body...)
	sealFrame(dst[start:], 0)
	return dst
}

// FrameAt returns the body of the frame b starts with, if b holds a whole
// one whose CRC matches.
func FrameAt(b []byte, hdr int) ([]byte, bool) {
	if len(b) < FrameHeader+hdr {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > maxRecordBytes || FrameHeader+hdr+int(n) > len(b) {
		return nil, false
	}
	body := b[FrameHeader+hdr : FrameHeader+hdr+int(n)]
	return body, crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(b[4:])
}

// replayChunk is the read buffer a replay streams a log through; a frame
// larger than it gets a buffer of its own for as long as it is read.
const replayChunk = 1 << 20

// chunkPool recycles replay's read buffers between opens: a collector
// replaying several stores side by side holds one chunk per store being
// opened, and a store takes one for its whole recovery
// (SegmentStore.recover), not one per file.
var chunkPool = sync.Pool{New: func() any { b := make([]byte, replayChunk); return &b }}

// Replay reads the log and hands visit each whole frame's owner header and
// body, in order; both alias a read buffer that the next frame reuses, so
// visit copies what it keeps. The file streams through one pooled chunk
// of replayChunk bytes, whatever its size. A missing file is an empty
// log. The first bad frame is a torn tail, truncated away, or damage,
// refused as ErrCorrupt naming the file and offset: which one is the
// log's damage rule, and a sealed log — one nothing appends to again —
// refuses any bad frame. A frame visit refuses is refused the same way,
// never truncated.
func (l *RecordLog) Replay(sealed bool, visit func(hdr, body []byte) error) error {
	chunk := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(chunk)
	return l.replay(chunk, sealed, visit)
}

// replay is Replay through the caller's chunk, so that one reader of many
// logs reads them all through the same one.
func (l *RecordLog) replay(chunk *[]byte, sealed bool, visit func(hdr, body []byte) error) error {
	r, err := l.openReader(chunk)
	if r == nil {
		return err
	}
	defer r.f.Close()
	head := FrameHeader + l.Hdr
	for r.off < r.size {
		b, err := r.fill(head)
		if err == nil && len(b) >= head {
			if n := binary.LittleEndian.Uint32(b); n > 0 && n <= maxRecordBytes {
				b, err = r.fill(head + int(n))
			}
		}
		if err != nil {
			return err
		}
		body, ok := FrameAt(b, l.Hdr)
		if !ok {
			off := r.off
			torn, err := l.tornTail(r)
			if err != nil {
				return err
			}
			if sealed || !torn {
				return fmt.Errorf("%w: %s damaged at offset %d", ErrCorrupt, l.Path, off)
			}
			if err := os.Truncate(l.Path, off); err != nil {
				return fmt.Errorf("store: truncate torn tail of %s: %w", l.Path, err)
			}
			break
		}
		if err := visit(b[FrameHeader:head], body); err != nil {
			return fmt.Errorf("%w: %s record at offset %d: %v", ErrCorrupt, l.Path, r.off, err)
		}
		if err := r.skip(head + len(body)); err != nil {
			return err
		}
	}
	return nil
}

// tornTail reports whether the rest of the file from r's offset, which
// starts with a bad frame, is what a crash mid-write leaves. Without
// per-write fsync a crash may tear anywhere past the last fsync, so any
// bad frame is one. With it, only the frame being appended can be: one
// the file ends inside of, or zeros the crash extended the file by and
// never filled.
func (l *RecordLog) tornTail(r *logReader) (bool, error) {
	rest, head := r.size-r.off, FrameHeader+l.Hdr
	if l.Level == WriteOnly || rest < int64(head) ||
		int64(head)+int64(binary.LittleEndian.Uint32(r.data)) >= rest {
		return true, nil
	}
	for r.off < r.size {
		b, err := r.fill(replayChunk)
		if err != nil {
			return false, err
		}
		for _, c := range b {
			if c != 0 {
				return false, nil
			}
		}
		if err := r.skip(len(b)); err != nil {
			return false, err
		}
	}
	return true, nil
}

// countFrames streams the log's length prefixes — no CRC, no decode —
// through chunk and returns how many frames they chain. A torn tail may
// count one too many; a missing file has none.
func (l *RecordLog) countFrames(chunk *[]byte) (int, error) {
	r, err := l.openReader(chunk)
	if r == nil {
		return 0, err
	}
	defer r.f.Close()
	head, n := FrameHeader+l.Hdr, 0
	for {
		b, err := r.fill(head)
		if err != nil {
			return 0, err
		}
		if len(b) < head {
			return n, nil
		}
		size := head + int(binary.LittleEndian.Uint32(b))
		if size == head || size > head+maxRecordBytes || int64(size) > r.size-r.off {
			return n, nil
		}
		if err := r.skip(size); err != nil {
			return 0, err
		}
		n++
	}
}

// logReader reads a log file front to back through its caller's chunk. data
// is what it has read and not yet consumed, starting at file offset off;
// the file's read position is off+len(data), and size its length when
// opened.
type logReader struct {
	path  string
	f     *os.File
	chunk *[]byte
	data  []byte
	off   int64
	size  int64
}

// openReader opens the log for reading through chunk, or returns nil and
// no error if there is no file.
func (l *RecordLog) openReader(chunk *[]byte) (*logReader, error) {
	f, err := os.Open(l.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err == nil {
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil {
			return &logReader{path: l.Path, f: f, chunk: chunk, size: fi.Size()}, nil
		}
		f.Close()
	}
	return nil, fmt.Errorf("store: replay %s: %w", l.Path, err)
}

// fill returns the unconsumed bytes, having read on until they hold at
// least n, or all the file has left if that is less. The bytes already
// buffered move to the front of the chunk, or of a buffer of n bytes if
// the chunk is too small for them.
func (r *logReader) fill(n int) ([]byte, error) {
	left := r.size - r.off
	if n = int(min(int64(n), left)); len(r.data) >= n {
		return r.data, nil
	}
	buf := *r.chunk
	if n > len(buf) {
		buf = make([]byte, n)
	}
	have := copy(buf, r.data)
	end := int(min(int64(len(buf)), left))
	if _, err := io.ReadFull(r.f, buf[have:end]); err != nil {
		return nil, fmt.Errorf("store: replay %s: %w", r.path, err)
	}
	r.data = buf[:end]
	return r.data, nil
}

// skip consumes n bytes, seeking past whatever of them is not buffered.
func (r *logReader) skip(n int) error {
	r.off += int64(n)
	if n <= len(r.data) {
		r.data = r.data[n:]
		return nil
	}
	ahead := int64(n - len(r.data))
	r.data = nil
	if _, err := r.f.Seek(ahead, io.SeekCurrent); err != nil {
		return fmt.Errorf("store: replay %s: %w", r.path, err)
	}
	return nil
}

// Open opens the log for appending, creating it if missing.
func (l *RecordLog) Open() error { return l.open(os.O_CREATE | os.O_WRONLY | os.O_APPEND) }

// Create opens the log for appending, emptied.
func (l *RecordLog) Create() error {
	return l.open(os.O_CREATE | os.O_WRONLY | os.O_APPEND | os.O_TRUNC)
}

func (l *RecordLog) open(flag int) error {
	l.Close() // the handle being replaced, if any
	f, err := os.OpenFile(l.Path, flag, 0o644)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", l.Path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: open %s: %w", l.Path, err)
	}
	l.f, l.id, l.size = f, fi, fi.Size()
	return nil
}

// Size returns the bytes of whole frames in the open log.
func (l *RecordLog) Size() int64 { return l.size }

// Write appends frames, whole frames its owner built, with one write(2),
// and for SyncEach an fsync and a check that the file is still the one at
// Path: a log whose directory was removed under it takes writes no
// restart can read. A write that fails is cut back off the file, so the
// next one starts on a frame boundary, or, if it cannot be, the log is
// closed. On a log that is not open, Write fails.
func (l *RecordLog) Write(frames []byte) error {
	_, err := l.f.Write(frames)
	if err == nil && l.Level == SyncEach {
		err = l.f.Sync()
		if err == nil {
			err = l.linked()
		}
	}
	if err != nil {
		if l.f.Truncate(l.size) != nil {
			l.Close() // a fragment is left: nothing may land after it
		}
		return fmt.Errorf("store: write %s: %w", l.Path, err)
	}
	l.size += int64(len(frames))
	return nil
}

// Append writes body as one frame; the log must have no owner header.
func (l *RecordLog) Append(body []byte) error {
	l.frame = AppendFrame(l.frame[:0], body)
	return l.Write(l.frame)
}

func (l *RecordLog) linked() error {
	fi, err := os.Stat(l.Path)
	if err != nil {
		return err
	}
	if !os.SameFile(fi, l.id) {
		return fmt.Errorf("%s was replaced", l.Path)
	}
	return nil
}

// Sync fsyncs what the log has written.
func (l *RecordLog) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", l.Path, err)
	}
	return nil
}

// Replace makes frames the log's whole content through WriteFileAtomic
// and reopens the log on the new file. On a failed write the old file and
// its handle stay; on a failed reopen the log is left closed, so later
// writes fail instead of landing in an unlinked file.
func (l *RecordLog) Replace(frames []byte) error {
	if err := WriteFileAtomic(l.Path, frames); err != nil {
		return err
	}
	return l.Open()
}

// Close closes the log's file, if open.
func (l *RecordLog) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// tempPattern is the os.CreateTemp pattern of WriteFileAtomic's temp files
// for path: ".labels-*.tmp" for labels.json, beside it.
func tempPattern(path string) string {
	base := filepath.Base(path)
	return "." + strings.TrimSuffix(base, filepath.Ext(base)) + "-*.tmp"
}

// WriteFileAtomic replaces path's content with data: a temp file beside
// it (mode 0644), fsync'd, renamed over it, and the directory fsync'd. A crash leaves
// the old content or the new, and perhaps the temp file, which
// SweepTemps removes.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPattern(path))
	if err != nil {
		return fmt.Errorf("store: replace %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644) // CreateTemp makes 0600; the files it replaces are 0644
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: replace %s: %w", path, err)
	}
	return syncDir(dir)
}

// SweepTemps removes the temp files of WriteFileAtomic calls on path that
// a crash interrupted before their rename: nothing reads them.
func SweepTemps(path string) error {
	dir := filepath.Dir(path)
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: sweep %s: %w", dir, err)
	}
	prefix, _ := strings.CutSuffix(tempPattern(path), "*.tmp")
	for _, ent := range ents {
		if name := ent.Name(); strings.HasPrefix(name, prefix) && strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("store: sweep %s: %w", name, err)
			}
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}
