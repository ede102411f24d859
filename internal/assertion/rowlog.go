package assertion

import "slices"

const (
	// rowDoubleBelow is where a RowLog's growth turns from doubling to
	// ×1.25 (see RowLog.grow).
	rowDoubleBelow = 64 << 10

	// evictChunk bounds the buffer a compaction reports its evictions
	// through.
	evictChunk = 1024
)

// row is one retained violation as a RowLog holds it: its names as ids
// into the log's name table, its append sequence number, and nothing the
// garbage collector has to scan: 56 bytes.
type row struct {
	stream, assertion uint32
	sampleIndex       int64
	time, severity    float64
	ingestUnix        int64
	observedUnixNano  int64
	seq               uint64
}

// RowLog is the retained log both ViolationStore backends keep: one
// pointer-free row per retained violation, in arrival order, whose
// assertion and stream are ids into the log's name table, and the
// PostingIndex over the rows. MemStore's is a ring bounded by its limit,
// overwriting its oldest row in place, and indexed from the first query
// that needs the postings (a log nobody queries by name or key, every
// edge Recorder's, never pays for them); SegmentStore's is flat,
// unbounded but for compaction, and indexed from open (Index). A name
// leaves the table with the last retained row naming it, and its id is
// reused; a compaction rebuilds the table from its survivors. A Violation
// is built only for what leaves the log: a query's answer, an evicted
// row reported to the Observer, and a row a caller reads with At.
//
// Its owner guards it with its own lock.
type RowLog struct {
	nameTable
	limit   int // a ring's bound; 0 for a flat log
	rows    []row
	head    int // the oldest row's slot once a ring has wrapped
	index   PostingIndex
	indexed bool
	// Observer, when not nil, hears every row the log evicts (see
	// EvictionObserver): a ring's overwritten oldest row, built into the
	// one-slot buffer evicted, and a compaction's evictions.
	Observer EvictionObserver
	evicted  [1]Violation
}

// Len returns how many rows the log retains.
func (l *RowLog) Len() int { return len(l.rows) }

// slot returns where the i-th oldest row sits.
func (l *RowLog) slot(i int) int {
	if i += l.head; i >= len(l.rows) {
		i -= len(l.rows)
	}
	return i
}

// violationAt builds the row at slot into v.
func (l *RowLog) violationAt(slot int, v *Violation) {
	r := &l.rows[slot]
	*v = Violation{
		Assertion: l.names[r.assertion], Stream: l.names[r.stream],
		SampleIndex: int(r.sampleIndex), Time: r.time, Severity: r.severity,
		IngestUnix: r.ingestUnix, ObservedUnixNano: r.observedUnixNano,
	}
}

// At builds the i-th oldest row into v and returns its append sequence
// number.
func (l *RowLog) At(i int, v *Violation) (seq uint64) {
	slot := l.slot(i)
	l.violationAt(slot, v)
	return l.rows[slot].seq
}

// Append adds v as the newest row, with append sequence number seq, its
// assertion and its stream named by the ids Intern gave them, and reports
// whether a full ring overwrote its oldest row to make room. That row is
// reported to the Observer first, and its names leave the table with it
// when no other retained row names them.
func (l *RowLog) Append(seq uint64, assertion, stream uint32, v *Violation) (overwrote bool) {
	l.refs[assertion]++ // before the overwrite can release the same name
	l.refs[stream]++
	slot := len(l.rows)
	if overwrote = l.limit > 0 && slot == l.limit; overwrote {
		slot = l.head
		if l.head++; l.head == l.limit {
			l.head = 0
		}
		old := &l.rows[slot]
		if l.Observer != nil {
			l.violationAt(slot, &l.evicted[0])
			l.Observer.ObserveEvicted(l.evicted[:])
		}
		if l.indexed {
			l.index.evictOldest(old.assertion, old.stream)
		}
		l.release(old.assertion)
		l.release(old.stream)
	} else {
		if slot == cap(l.rows) {
			l.grow()
		}
		l.rows = l.rows[:slot+1]
	}
	l.rows[slot] = row{
		stream: stream, assertion: assertion,
		sampleIndex: int64(v.SampleIndex), time: v.Time, severity: v.Severity,
		ingestUnix: v.IngestUnix, observedUnixNano: v.ObservedUnixNano,
		seq: seq,
	}
	if l.indexed {
		l.index.add(slot, assertion, stream, v.Time)
	}
	return overwrote
}

// grow moves a full array into a larger one, geometrically: doubling
// while the log is small (the runtime's own ×1.25 would re-allocate, zero
// and copy about 5x a young log's final size through the append path),
// ×1.25 once it holds rowDoubleBelow rows, and never past a ring's bound.
// Compaction filters the rows in place, so under a retention policy the
// capacity settles within a quarter of the largest backlog one compaction
// period has produced, however the ingest rate moves; doubling there
// would land on the next power of two and hold up to twice the peak
// (59 MB a step at a million rows).
func (l *RowLog) grow() {
	n := cap(l.rows)
	if n < rowDoubleBelow {
		n = max(1024, 2*n)
	} else {
		n += n / 4
	}
	if l.limit > 0 {
		n = min(n, l.limit)
	}
	l.Reserve(n)
}

// Reserve moves the rows into an array of exactly the given capacity,
// which must hold them.
func (l *RowLog) Reserve(capacity int) {
	l.rows = append(make([]row, 0, capacity), l.rows...)
}

// Index builds the postings over the retained rows, oldest first, and
// keeps them in step with every later change.
func (l *RowLog) Index() {
	l.indexed = true
	l.index.reset()
	for i := range l.rows {
		slot := l.slot(i)
		r := &l.rows[slot]
		l.index.add(slot, r.assertion, r.stream, r.time)
	}
}

// Query returns a fresh slice of the retained violations matching q, in
// arrival order, or under q.ByKey in key order: (Time, Stream,
// SampleIndex, arrival) ascending. With a limit it holds the newest
// q.Limit matches — the last to arrive, or under q.ByKey the greatest in
// key order — found by walking the candidates newest to oldest, so the
// arrival-order walk stops after q.Limit matches and neither walk
// allocates beyond the matches it keeps: nothing is sized by q.Limit
// alone. A query that names an assertion or a stream, or asks ByKey,
// indexes a log not yet indexed first.
//
// The ByKey walk keeps a size-q.Limit heap and, once it is full, reads
// each block's zone bound once and skips a block whose bound is below the
// heap minimum's Time: nothing in it can displace the minimum. While Time
// rises with arrival that leaves the zone bounds (one per 256 slots) plus
// the candidates of the block or two the newest matches sit in, and of
// the block a ring's head splits; when Time runs against arrival no bound
// skips anything and the walk is one pass over the candidates.
func (l *RowLog) Query(q StoreQuery) []Violation {
	if !l.indexed && (q.Assertion != "" || q.Stream != "" || q.ByKey) {
		l.Index()
	}
	return l.query(q, nil)
}

// IndexSize reports the postings' keys and count and the zone map's
// broken bounds (see PostingIndex.size).
func (l *RowLog) IndexSize() (keys, postings, badBounds int) {
	return l.index.size(l.rows)
}

// Plan returns the keep-mask over the rows, oldest first, of
// ViolationStore.Compact's retention pass, and how many rows it evicts. A
// row survives when it is not older than minIngestUnix (0 disables;
// unstamped rows are exempt) and its assertion's budget, when it has one,
// is not yet spent: the first of budgets that names the assertion, or
// else a positive maxPerAssertion. The newest-to-oldest walk makes
// budgets keep the newest. What each assertion has left is a slice
// indexed by id.
func (l *RowLog) Plan(minIngestUnix int64, maxPerAssertion int, budgets []map[string]int) (keep []bool, evicted int) {
	const unbounded = -1
	left := make([]int, len(l.names))
	for id, name := range l.names {
		left[id] = unbounded
		if maxPerAssertion > 0 {
			left[id] = maxPerAssertion
		}
		for _, b := range budgets {
			if n, ok := b[name]; ok {
				left[id] = max(n, 0)
				break
			}
		}
	}
	keep = make([]bool, len(l.rows))
	for i := len(l.rows) - 1; i >= 0; i-- {
		r := &l.rows[l.slot(i)]
		if minIngestUnix > 0 && r.ingestUnix > 0 && r.ingestUnix < minIngestUnix {
			evicted++
			continue
		}
		switch left[r.assertion] {
		case 0:
			evicted++
			continue
		case unbounded:
		default:
			left[r.assertion]--
		}
		keep[i] = true
	}
	return keep, evicted
}

// Compact drops the rows a Plan mask does not keep, which number evicted,
// in place. The Observer hears them first, oldest first, each run between
// survivors built through one buffer of at most evictChunk that every
// call reuses. The survivors then lie in arrival order from slot 0 (a
// ring is unwrapped first), the name table holds exactly their names,
// each survivor's ids remapped into it — bounded by the retained log
// however many stream keys a fleet churns through — and an indexed log's
// postings are rebuilt over them. The array stays — the next period's
// backlog refills it — unless this period's peak fit in half of it, in
// which case a burst has passed and it shrinks to that peak.
func (l *RowLog) Compact(keep []bool, evicted int) {
	if l.head > 0 { // rotate the ring's oldest row to slot 0
		slices.Reverse(l.rows[:l.head])
		slices.Reverse(l.rows[l.head:])
		slices.Reverse(l.rows)
		l.head = 0
	}
	if l.Observer != nil {
		buf := make([]Violation, 0, min(evicted, evictChunk))
		for i, k := range keep {
			if !k {
				buf = buf[:len(buf)+1]
				l.violationAt(i, &buf[len(buf)-1])
			}
			if len(buf) > 0 && (k || len(buf) == cap(buf) || i == len(keep)-1) {
				l.Observer.ObserveEvicted(buf)
				buf = buf[:0]
			}
		}
	}

	old := l.names
	l.nameTable.reset()
	l.index.reset()
	remap := make([]uint32, len(old)) // 0: not yet seen ("" is id 0 in both)
	id := func(o uint32) uint32 {
		if o != 0 && remap[o] == 0 {
			remap[o] = l.Intern(old[o])
		}
		l.refs[remap[o]]++
		return remap[o]
	}
	kept := 0
	for i, k := range keep {
		if k {
			r := l.rows[i]
			r.assertion, r.stream = id(r.assertion), id(r.stream)
			if l.indexed {
				l.index.add(kept, r.assertion, r.stream, r.time)
			}
			l.rows[kept] = r
			kept++
		}
	}
	l.rows = l.rows[:kept]
	if peak := len(keep); peak <= cap(l.rows)/2 {
		l.Reserve(peak)
	}
}

// IngestRuns run-length encodes each assertion's ingest stamps over the
// rows, in arrival order (see IngestRun). Stamps are the collector's clock
// at ingest, so they barely ever step backwards and an assertion costs
// one run per second it was retained over. Each assertion's runs build up
// in a slice indexed by id.
func (l *RowLog) IngestRuns() map[string][]IngestRun {
	byID := make([][]IngestRun, len(l.names))
	for i := range l.rows {
		r := &l.rows[l.slot(i)]
		runs := byID[r.assertion]
		if k := len(runs); k > 0 && runs[k-1].Unix == r.ingestUnix {
			runs[k-1].N++
			continue
		}
		byID[r.assertion] = append(runs, IngestRun{Unix: r.ingestUnix, N: 1})
	}
	out := make(map[string][]IngestRun)
	for id, runs := range byID {
		if len(runs) > 0 {
			out[l.names[id]] = runs
		}
	}
	return out
}
