package assertion

import (
	"math"
	"slices"
	"sort"
)

// zoneBlock is how many consecutive log slots one zone bound covers.
const zoneBlock = 256

// PostingIndex is the read index both ViolationStore backends answer
// Query from: per assertion name and per stream key, the log slots of the
// retained violations, oldest first, plus a zone map — for every
// zoneBlock consecutive log slots, an upper bound on their Time. The
// owning store keeps it in step with its log under its own lock — Add on
// append, EvictOldest when a bounded log overwrites its oldest entry,
// Rebuild after compaction — so a filtered query costs the matching
// postings, not the retained log, and a ByKey query skips the blocks
// whose bound cannot reach its newest Limit. Violations with an empty
// Stream carry no stream posting (an empty StoreQuery.Stream means
// "any").
type PostingIndex struct {
	byAssert map[string][]int32
	byStream map[string][]int32
	// zone[b] bounds the Time of log slots [b*zoneBlock, (b+1)*zoneBlock)
	// from above; a NaN Time makes its block's bound NaN, which no
	// comparison skips. Add only raises a bound and EvictOldest leaves it,
	// since a bound over fewer entries is still a bound.
	zone []float64
}

// Reset drops every posting and zone bound.
func (p *PostingIndex) Reset() {
	p.byAssert = make(map[string][]int32)
	p.byStream = make(map[string][]int32)
	p.zone = p.zone[:0]
}

// Add indexes v, which the store just wrote to slot as its newest
// retained violation, and raises slot's zone bound to v.Time.
func (p *PostingIndex) Add(slot int, v Violation) {
	if p.byAssert == nil {
		p.Reset()
	}
	p.byAssert[v.Assertion] = append(p.byAssert[v.Assertion], int32(slot))
	if v.Stream != "" {
		p.byStream[v.Stream] = append(p.byStream[v.Stream], int32(slot))
	}
	b := slot / zoneBlock
	for b >= len(p.zone) {
		p.zone = append(p.zone, math.Inf(-1))
	}
	if z := p.zone[b]; z == z && !(v.Time <= z) { // a NaN bound stays NaN
		p.zone[b] = v.Time
	}
}

// EvictOldest drops the postings of v, which must be the oldest retained
// violation — and so the head of each list it is on. A key whose last
// posting goes is deleted, which keeps the index bounded by the retained
// log on a fleet whose stream keys churn.
func (p *PostingIndex) EvictOldest(v Violation) {
	popHead(p.byAssert, v.Assertion)
	if v.Stream != "" {
		popHead(p.byStream, v.Stream)
	}
}

// popHead drops the oldest posting under key, and the key with its last.
func popHead(lists map[string][]int32, key string) {
	if list := lists[key]; len(list) > 1 {
		lists[key] = list[1:]
	} else {
		delete(lists, key)
	}
}

// Rebuild re-indexes log, a ring whose oldest entry sits at log[head]
// (head is 0 for a flat, arrival-ordered log) — the state after
// compaction, or when a store starts indexing a log it already holds.
func (p *PostingIndex) Rebuild(log []Violation, head int) {
	p.Reset()
	for i := range log {
		slot := head + i
		if slot >= len(log) {
			slot -= len(log)
		}
		p.Add(slot, log[slot])
	}
}

// Size reports the index's footprint over log, the retained violations it
// covers: how many keys it holds and how many postings across them, both
// bounded by the retained log — one assertion posting per violation, one
// stream posting per keyed one, no key without a posting. badBounds
// counts where the zone map breaks its own invariant: a block of log
// without a bound or a bound without a block, and a bound below a Time in
// its block (a NaN bound never is).
func (p *PostingIndex) Size(log []Violation) (keys, postings, badBounds int) {
	for _, lists := range []map[string][]int32{p.byAssert, p.byStream} {
		keys += len(lists)
		for _, list := range lists {
			postings += len(list)
		}
	}
	blocks := (len(log) + zoneBlock - 1) / zoneBlock
	badBounds = max(len(p.zone)-blocks, blocks-len(p.zone))
	for slot := range min(len(log), len(p.zone)*zoneBlock) {
		if z := p.zone[slot/zoneBlock]; z == z && !(z >= log[slot].Time) {
			badBounds++
		}
	}
	return keys, postings, badBounds
}

// candidates returns the posting list a query walks — the shorter one
// when it names both an assertion and a stream — or indexed false when
// it names neither and every retained slot is a candidate.
func (p *PostingIndex) candidates(q StoreQuery) (list []int32, indexed bool) {
	switch {
	case q.Assertion != "" && q.Stream != "":
		a, s := p.byAssert[q.Assertion], p.byStream[q.Stream]
		if len(s) < len(a) {
			return s, true
		}
		return a, true
	case q.Assertion != "":
		return p.byAssert[q.Assertion], true
	case q.Stream != "":
		return p.byStream[q.Stream], true
	}
	return nil, false
}

// Query answers q over log, the retained violations this index covers: a
// ring whose oldest entry sits at log[head] (head is 0 for a flat log).
// The result is a fresh slice, in arrival order, or under q.ByKey in key
// order: (Time, Stream, SampleIndex, arrival) ascending. With a limit it
// holds the newest q.Limit matches — the last to arrive, or under q.ByKey
// the greatest in key order — found by walking the candidates newest to
// oldest, so the arrival-order walk stops after q.Limit matches and
// neither walk allocates beyond the matches it keeps: nothing is sized by
// q.Limit alone. The caller holds the lock guarding log.
//
// The ByKey walk keeps a size-q.Limit heap and, once it is full, reads
// each block's zone bound once and skips a block whose bound is below the
// heap minimum's Time: nothing in it can displace the minimum. While Time
// rises with arrival that leaves the zone bounds (one per 256 slots) plus
// the candidates of the block or two the newest matches sit in, and of
// the block a ring's head splits; when Time runs against arrival no bound
// skips anything and the walk is one pass over the candidates.
func (p *PostingIndex) Query(q StoreQuery, log []Violation, head int) []Violation {
	return p.query(q, log, head, nil)
}

// queryWork counts what a ByKey walk read: the candidates it examined and
// the zone bounds it compared.
type queryWork struct{ candidates, bounds int }

// query is Query, counting the ByKey walk's work into work when it is not
// nil.
func (p *PostingIndex) query(q StoreQuery, log []Violation, head int, work *queryWork) []Violation {
	list, indexed := p.candidates(q)
	n := len(log)
	if indexed {
		n = len(list)
	}
	// cand returns the i-th oldest candidate.
	cand := func(i int) *Violation {
		if indexed {
			return &log[list[i]]
		}
		if i += head; i >= len(log) {
			i -= len(log)
		}
		return &log[i]
	}
	if q.Limit <= 0 && !q.ByKey {
		out := make([]Violation, 0, n)
		for i := 0; i < n; i++ {
			if v := cand(i); q.Matches(*v) {
				out = append(out, *v)
			}
		}
		return out
	}

	// order compares candidate ranks by key, then rank: ranks break key
	// ties, so a candidate older than everything in the heap never
	// displaces an equal key.
	order := func(a, b int) int {
		if c := keyCompare(cand(a), cand(b)); c != 0 {
			return c
		}
		return a - b
	}
	less := func(a, b int) bool { return order(a, b) < 0 }
	var picked []int // candidate ranks
	switch {
	case !q.ByKey:
		picked = make([]int, 0, min(q.Limit, n))
		for i := n - 1; i >= 0 && len(picked) < q.Limit; i-- {
			if q.Matches(*cand(i)) {
				picked = append(picked, i)
			}
		}
		slices.Reverse(picked)
	case q.Limit <= 0:
		picked = make([]int, 0, n)
		for i := 0; i < n; i++ {
			if q.Matches(*cand(i)) {
				picked = append(picked, i)
			}
		}
	default:
		// picked is a min-heap of the q.Limit greatest candidates seen so
		// far.
		picked = make([]int, 0, min(q.Limit, n))
		// Candidate ranks [0, split) sit at ascending slots from head on,
		// ranks [split, n) at ascending slots below head: the two runs of a
		// wrapped ring, or one run when head is 0.
		split := len(log) - head
		if indexed {
			split = sort.Search(n, func(k int) bool { return int(list[k]) < head })
		}
		seen, examined, bounds := -1, 0, 0 // seen: the block whose bound was read last
		for i := n - 1; i >= 0; i-- {
			if len(picked) == q.Limit {
				slot := head + i
				switch {
				case indexed:
					slot = int(list[i])
				case slot >= len(log):
					slot -= len(log)
				}
				if b := slot / zoneBlock; b != seen && b < len(p.zone) {
					seen = b
					bounds++
					// v.Time <= zone[b] < min.Time makes keyLess(v, min) hold
					// for every v in the block: none can enter the heap.
					if p.zone[b] < cand(picked[0]).Time {
						// Step i to the first rank of the block in its run.
						lo, start := 0, b*zoneBlock
						if i >= split {
							lo = split
						} else {
							start = max(start, head)
						}
						if indexed {
							i = lo + sort.Search(i-lo, func(k int) bool { return int(list[lo+k]) >= start })
						} else {
							i -= slot - start
						}
						continue // i-- steps to the newest candidate below the block
					}
				}
			}
			examined++
			switch {
			case !q.Matches(*cand(i)):
			case len(picked) < q.Limit:
				picked = append(picked, i)
				siftUp(picked, less)
			case less(picked[0], i):
				picked[0] = i
				siftDown(picked, less)
			}
		}
		if work != nil {
			*work = queryWork{candidates: examined, bounds: bounds}
		}
		// From rank order, the key sort below is the same for every walk
		// that picked the same set, even where a NaN Time leaves keyLess
		// no total order.
		slices.Sort(picked)
	}
	if q.ByKey {
		slices.SortFunc(picked, order)
	}
	out := make([]Violation, len(picked))
	for j, i := range picked {
		out[j] = *cand(i)
	}
	return out
}

// siftUp restores the min-heap h after an append.
func siftUp(h []int, less func(a, b int) bool) {
	for c := len(h) - 1; c > 0; {
		parent := (c - 1) / 2
		if !less(h[c], h[parent]) {
			return
		}
		h[c], h[parent] = h[parent], h[c]
		c = parent
	}
}

// siftDown restores the min-heap h after its root was replaced.
func siftDown(h []int, less func(a, b int) bool) {
	for c := 0; ; {
		child := 2*c + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && less(h[r], h[child]) {
			child = r
		}
		if !less(h[child], h[c]) {
			return
		}
		h[c], h[child] = h[child], h[c]
		c = child
	}
}
