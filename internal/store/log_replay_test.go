package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// replayWholeFile is RecordLog.Replay as it was before replay streamed:
// the whole file read into one buffer and walked in place. It is the
// reference the streaming Replay must agree with frame for frame, byte
// for byte of the truncated file, and error for error.
func replayWholeFile(l *RecordLog, sealed bool, visit func(hdr, body []byte) error) error {
	data, err := os.ReadFile(l.Path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: replay %s: %w", l.Path, err)
	}
	off := 0
	for off < len(data) {
		rest := data[off:]
		body, ok := FrameAt(rest, l.Hdr)
		if !ok {
			if sealed || !wholeFileTornTail(l, rest) {
				return fmt.Errorf("%w: %s damaged at offset %d", ErrCorrupt, l.Path, off)
			}
			if err := os.Truncate(l.Path, int64(off)); err != nil {
				return fmt.Errorf("store: truncate torn tail of %s: %w", l.Path, err)
			}
			break
		}
		if err := visit(rest[FrameHeader:FrameHeader+l.Hdr], body); err != nil {
			return fmt.Errorf("%w: %s record at offset %d: %v", ErrCorrupt, l.Path, off, err)
		}
		off += FrameHeader + l.Hdr + len(body)
	}
	return nil
}

// wholeFileTornTail is the reference's damage rule over rest, the rest of
// the file from a bad frame on.
func wholeFileTornTail(l *RecordLog, rest []byte) bool {
	if l.Level == WriteOnly || len(rest) < FrameHeader+l.Hdr ||
		int64(FrameHeader+l.Hdr)+int64(binary.LittleEndian.Uint32(rest)) >= int64(len(rest)) {
		return true
	}
	for _, b := range rest {
		if b != 0 {
			return false
		}
	}
	return true
}

// wholeFileCountFrames is the reference's frame count over a whole file.
func wholeFileCountFrames(l *RecordLog, data []byte) int {
	n := 0
	for len(data) >= FrameHeader+l.Hdr {
		size := FrameHeader + l.Hdr + int(binary.LittleEndian.Uint32(data))
		if size == FrameHeader+l.Hdr || size > FrameHeader+l.Hdr+maxRecordBytes || size > len(data) {
			break
		}
		data = data[size:]
		n++
	}
	return n
}

// refusedBody is the first body byte the differential's visit refuses, so
// a frame whose CRC holds and whose owner cannot decode it is covered too.
const refusedBody = 0xEE

// replayOutcome is what one replay of a file did.
type replayOutcome struct {
	frames [][]byte // each visited frame's owner header and body, copied
	size   int64    // the file's length afterwards
	err    string   // "" when the replay succeeded
	count  int      // the frame count taken before the replay
}

func (o replayOutcome) equal(p replayOutcome) bool {
	return o.size == p.size && o.err == p.err && o.count == p.count &&
		slices.EqualFunc(o.frames, p.frames, bytes.Equal)
}

func (o replayOutcome) String() string {
	return fmt.Sprintf("%d frames, count %d, size %d, err %q", len(o.frames), o.count, o.size, o.err)
}

// replayBoth writes content to one path and replays it with the
// reference, then writes it again and replays it streaming, and returns
// both outcomes.
func replayBoth(t testing.TB, path string, level Durability, hdr int, sealed bool, content []byte) (want, got replayOutcome) {
	t.Helper()
	l := &RecordLog{Path: path, Hdr: hdr, Level: level}
	run := func(count func() int, replay func(bool, func(hdr, body []byte) error) error) replayOutcome {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		o := replayOutcome{count: count()}
		err := replay(sealed, func(h, body []byte) error {
			o.frames = append(o.frames, append(slices.Clone(h), body...))
			if body[0] == refusedBody {
				return errors.New("undecodable body")
			}
			return nil
		})
		if err != nil {
			o.err = err.Error()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay failed with %v, neither torn nor corrupt", err)
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		o.size = fi.Size()
		return o
	}
	want = run(func() int { return wholeFileCountFrames(l, content) }, func(sealed bool, visit func(hdr, body []byte) error) error {
		return replayWholeFile(l, sealed, visit)
	})
	got = run(func() int {
		chunk := chunkPool.Get().(*[]byte)
		defer chunkPool.Put(chunk)
		n, err := l.countFrames(chunk)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}, l.Replay)
	return want, got
}

// checkReplay holds the streaming Replay to the reference over content at
// both durability levels, sealed and not.
func checkReplay(t testing.TB, path string, hdr int, content []byte, what string) {
	t.Helper()
	for _, level := range []Durability{WriteOnly, SyncEach} {
		for _, sealed := range []bool{false, true} {
			if want, got := replayBoth(t, path, level, hdr, sealed, content); !got.equal(want) {
				t.Fatalf("%s (%d bytes, level %d, hdr %d, sealed %v):\n got %v\nwant %v", what, len(content), level, hdr, sealed, got, want)
			}
		}
	}
}

// buildLog frames bodies with hdr owner-header bytes each (filled from the
// frame's index) and returns the log and each frame's start offset.
func buildLog(hdr int, bodies [][]byte) (log []byte, starts []int) {
	for i, body := range bodies {
		starts = append(starts, len(log))
		start := len(log)
		log = append(log, make([]byte, FrameHeader+hdr)...)
		for k := 0; k < hdr; k++ {
			log[start+FrameHeader+k] = byte(i + k)
		}
		log = append(log, body...)
		sealFrame(log[start:], hdr)
	}
	return log, starts
}

// randomBody is n bytes whose first is never refusedBody or zero.
func randomBody(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.UintN(256))
	}
	b[0] = byte(1 + rng.UintN(200))
	return b
}

// randomBodies draws bodies until they frame to at least total bytes:
// mostly short ones, so many frames straddle each chunk boundary.
func randomBodies(rng *rand.Rand, total int) [][]byte {
	var bodies [][]byte
	for size := 0; size < total; {
		n := 1 + rng.IntN(120)
		if rng.IntN(50) == 0 {
			n = 1 + rng.IntN(40_000)
		}
		bodies = append(bodies, randomBody(rng, n))
		size += FrameHeader + 8 + n
	}
	return bodies
}

// straddles reports whether some frame starts before offset at and ends
// after it.
func straddles(starts []int, size, at int) bool {
	for i, s := range starts {
		end := size
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		if s < at && end > at {
			return true
		}
	}
	return false
}

// TestReplayStreamingMatchesWholeFile holds the streaming Replay to the
// whole-file reference over seeded random logs two to three chunks long —
// whole, and damaged the ways a crash or a bad disk leaves them — and over
// the cases chunking makes hard: frames straddling the chunk boundary, one
// frame larger than the chunk, a tail cut at every byte offset of its last
// two frames across the boundary, and a zero-filled tail.
func TestReplayStreamingMatchesWholeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replay.log")
	rng := rand.New(rand.NewPCG(50, 1))
	// The race detector looks for unsynchronised access, which a replay
	// has none of, and slows these byte loops tenfold: under it the
	// random rounds are fewer and the cuts take every fifth offset.
	rounds, cutStep := 8, 1
	if raceEnabled {
		rounds, cutStep = 2, 5
	}

	t.Run("random", func(t *testing.T) {
		for round := 0; round < rounds; round++ {
			hdr := []int{0, seqHeader}[round%2]
			log, starts := buildLog(hdr, randomBodies(rng, 2*replayChunk+rng.IntN(replayChunk)))
			if !straddles(starts, len(log), replayChunk) {
				t.Fatalf("round %d: no frame straddles the chunk boundary", round)
			}
			checkReplay(t, path, hdr, log, fmt.Sprintf("round %d whole", round))

			damaged := slices.Clone(log)
			at := rng.IntN(len(damaged))
			damaged[at] ^= byte(1 + rng.UintN(255))
			checkReplay(t, path, hdr, damaged, fmt.Sprintf("round %d, byte %d flipped", round, at))

			cut := rng.IntN(len(log))
			checkReplay(t, path, hdr, log[:cut], fmt.Sprintf("round %d, cut at %d", round, cut))

			refused := slices.Clone(log)
			k := rng.IntN(len(starts))
			refused[starts[k]+FrameHeader+hdr] = refusedBody
			sealFrame(refused[starts[k]:], hdr)
			checkReplay(t, path, hdr, refused, fmt.Sprintf("round %d, frame %d refused", round, k))

			garbage := append(slices.Clone(log), randomBody(rng, 1+rng.IntN(64))...)
			checkReplay(t, path, hdr, garbage, fmt.Sprintf("round %d, garbage tail", round))
		}
	})

	t.Run("frame larger than the chunk", func(t *testing.T) {
		for _, hdr := range []int{0, seqHeader} {
			bodies := [][]byte{randomBody(rng, 100), randomBody(rng, replayChunk+4321), randomBody(rng, 50)}
			log, starts := buildLog(hdr, bodies)
			checkReplay(t, path, hdr, log, "whole")
			checkReplay(t, path, hdr, log[:starts[1]+replayChunk], "cut inside the large frame")
			checkReplay(t, path, hdr, log[:starts[2]], "ending with the large frame")
			flipped := slices.Clone(log)
			flipped[starts[1]+FrameHeader+hdr+replayChunk] ^= 0x40
			checkReplay(t, path, hdr, flipped, "large frame damaged past the chunk")
			checkReplay(t, path, hdr, append(slices.Clone(log[:starts[2]]), make([]byte, replayChunk)...), "large frame, then a chunk of zeros")
		}
	})

	t.Run("tail cut at every offset across the boundary", func(t *testing.T) {
		for _, hdr := range []int{0, seqHeader} {
			// A frame ending 10 bytes short of the boundary, then two
			// short ones: the first straddles it, the second follows.
			lead := replayChunk - 10 - FrameHeader - hdr
			log, starts := buildLog(hdr, [][]byte{randomBody(rng, lead), randomBody(rng, 7), randomBody(rng, 30)})
			if !straddles(starts, len(log), replayChunk) {
				t.Fatal("the last two frames do not straddle the chunk boundary")
			}
			for cut := starts[1]; cut <= len(log); cut += cutStep {
				checkReplay(t, path, hdr, log[:cut], fmt.Sprintf("cut at %d", cut))
			}
		}
	})

	t.Run("zero-filled tail", func(t *testing.T) {
		for _, hdr := range []int{0, seqHeader} {
			log, _ := buildLog(hdr, randomBodies(rng, replayChunk-5000))
			for _, zeros := range []int{1, FrameHeader + hdr - 1, FrameHeader + hdr, 4096, 5000, replayChunk + 77} {
				tail := append(slices.Clone(log), make([]byte, zeros)...)
				checkReplay(t, path, hdr, tail, fmt.Sprintf("%d zeros", zeros))
				// Not all zeros: a nonzero byte at the very end, past the
				// chunk the zeros start in.
				tail[len(tail)-1] = 1
				checkReplay(t, path, hdr, tail, fmt.Sprintf("%d zeros then a one", zeros))
			}
		}
	})

	t.Run("missing and empty", func(t *testing.T) {
		for _, hdr := range []int{0, seqHeader} {
			checkReplay(t, path, hdr, nil, "empty")
			l := &RecordLog{Path: filepath.Join(t.TempDir(), "missing.log"), Hdr: hdr}
			n, err := l.countFrames(new([]byte))
			if err != nil || n != 0 {
				t.Fatalf("countFrames of a missing log = %d, %v", n, err)
			}
			if err := l.Replay(true, func(_, _ []byte) error { return errors.New("visited") }); err != nil {
				t.Fatalf("Replay of a missing log: %v", err)
			}
		}
	})
}

// FuzzRecordLogReplay is the differential over arbitrary bytes: the
// streaming Replay and its frame count against the whole-file reference,
// at the level, owner header and sealing the inputs pick. A nonzero shift
// first frames one valid record that ends shift%4096 bytes short of the
// chunk boundary, so the fuzzed bytes straddle it.
func FuzzRecordLogReplay(f *testing.F) {
	rng := rand.New(rand.NewPCG(7, 7))
	whole, _ := buildLog(seqHeader, randomBodies(rng, 600))
	f.Add(whole, uint8(0), true, false, uint16(0))
	f.Add(whole[:len(whole)-3], uint8(1), true, false, uint16(100))
	f.Add(append(slices.Clone(whole), make([]byte, 40)...), uint8(1), true, false, uint16(9))
	plain, _ := buildLog(0, randomBodies(rng, 300))
	f.Add(plain, uint8(1), false, false, uint16(0))
	f.Add(plain, uint8(0), false, true, uint16(33))
	f.Add([]byte{}, uint8(0), false, false, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, level uint8, seqHdr, sealed bool, shift uint16) {
		hdr := 0
		if seqHdr {
			hdr = seqHeader
		}
		var content []byte
		if shift != 0 {
			pad := replayChunk - int(shift%4096) - FrameHeader - hdr
			content, _ = buildLog(hdr, [][]byte{bytes.Repeat([]byte{1}, pad)})
		}
		content = append(content, data...)
		path := filepath.Join(t.TempDir(), "fuzz.log")
		lv := []Durability{WriteOnly, SyncEach}[level%2]
		if want, got := replayBoth(t, path, lv, hdr, sealed, content); !got.equal(want) {
			t.Fatalf("%d bytes, level %d, hdr %d, sealed %v:\n got %v\nwant %v", len(content), lv, hdr, sealed, got, want)
		}
	})
}
