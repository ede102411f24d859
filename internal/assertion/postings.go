package assertion

import (
	"math"
	"slices"
	"sort"
)

// zoneBlock is how many consecutive log slots one zone bound covers.
const zoneBlock = 256

// PostingIndex is the read index over a RowLog's slots that both
// ViolationStore backends answer Query from. Per name id (an index into
// the log's name table) it holds the slots of the retained rows naming it
// as their assertion and, apart, as their stream, oldest first, in slices
// indexed by id; and a zone map — for every zoneBlock consecutive slots,
// an upper bound on their Time. The log keeps it in step with its rows —
// add on append, evictOldest when a ring overwrites its oldest row, a
// fresh build after compaction — so a filtered query costs the matching
// postings, not the retained log, and a ByKey query skips the blocks
// whose bound cannot reach its newest Limit. Rows with an empty stream
// carry no stream posting (an empty StoreQuery.Stream means "any"). A
// posting is 4 bytes: the index costs a retained violation about 8 B (its
// assertion's posting, its stream's, and their lists' growth slack), and
// the zone map 8 B per 256.
type PostingIndex struct {
	byAssert [][]int32 // by assertion id
	byStream [][]int32 // by stream id; id 0 ("") has none
	// zone[b] bounds the Time of log slots [b*zoneBlock, (b+1)*zoneBlock)
	// from above; a NaN Time makes its block's bound NaN, which no
	// comparison skips. add only raises a bound and evictOldest leaves it,
	// since a bound over fewer entries is still a bound.
	zone []float64
}

// nameTable gives every distinct name an id, an index into names. "" is
// id 0 from the first use on. refs counts the rows naming each id; an id
// whose last row goes is released to free and reused by the next new
// name.
type nameTable struct {
	ids   map[string]uint32
	names []string
	refs  []int32
	free  []uint32
}

// reset empties the table down to "". It allocates a fresh names slice,
// so a caller still holding the old one can read it on.
func (t *nameTable) reset() {
	t.ids = map[string]uint32{"": 0}
	t.names = []string{""}
	t.refs = []int32{0}
	t.free = nil
}

// Intern returns name's id, giving it the next one if it has none.
func (t *nameTable) Intern(name string) uint32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	return t.add(name)
}

// InternBytes is Intern for a name a decoder holds as bytes; the lookup
// of a known name allocates nothing.
func (t *nameTable) InternBytes(name []byte) uint32 {
	if id, ok := t.ids[string(name)]; ok {
		return id
	}
	return t.add(string(name))
}

func (t *nameTable) add(name string) uint32 {
	if t.ids == nil {
		t.reset()
		if name == "" {
			return 0
		}
	}
	var id uint32
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
		t.names[id] = name
	} else {
		id = uint32(len(t.names))
		t.names = append(t.names, name)
		t.refs = append(t.refs, 0)
	}
	t.ids[name] = id
	return id
}

// release drops one row's reference to id, and id itself from the table
// with the last one.
func (t *nameTable) release(id uint32) {
	if t.refs[id]--; t.refs[id] == 0 && id != 0 {
		delete(t.ids, t.names[id])
		t.names[id] = ""
		t.free = append(t.free, id)
	}
}

// Names returns the name table: the name of id i is Names()[i]. It is the
// table's own slice, valid until the next append or compaction.
func (t *nameTable) Names() []string { return t.names }

// reset drops every posting and zone bound.
func (p *PostingIndex) reset() {
	p.byAssert, p.byStream = nil, nil
	p.zone = p.zone[:0]
}

// add indexes the row at slot, the log's newest, by its assertion's and
// its stream's ids, and raises slot's zone bound to its time.
func (p *PostingIndex) add(slot int, assertion, stream uint32, time float64) {
	for int(max(assertion, stream)) >= len(p.byAssert) {
		p.byAssert, p.byStream = append(p.byAssert, nil), append(p.byStream, nil)
	}
	p.byAssert[assertion] = append(p.byAssert[assertion], int32(slot))
	if stream != 0 {
		p.byStream[stream] = append(p.byStream[stream], int32(slot))
	}
	b := slot / zoneBlock
	for b >= len(p.zone) {
		p.zone = append(p.zone, math.Inf(-1))
	}
	if z := p.zone[b]; z == z && !(time <= z) { // a NaN bound stays NaN
		p.zone[b] = time
	}
}

// evictOldest drops the postings of the log's oldest row, which names
// assertion and stream — and so is the head of each list it is on.
func (p *PostingIndex) evictOldest(assertion, stream uint32) {
	popHead(p.byAssert, assertion)
	if stream != 0 {
		popHead(p.byStream, stream)
	}
}

// popHead drops the oldest posting of id in lists, and the list's array
// with its last posting.
func popHead(lists [][]int32, id uint32) {
	if list := lists[id]; len(list) > 1 {
		lists[id] = list[1:]
	} else {
		lists[id] = nil
	}
}

// size reports the index's footprint over rows: how many keys it holds
// and how many postings across them, both bounded by the retained log —
// one assertion posting per row, one stream posting per keyed one, no key
// without a posting. badBounds counts where the zone map breaks its own
// invariant: a block of rows without a bound or a bound without a block,
// and a bound below a time in its block (a NaN bound never is).
func (p *PostingIndex) size(rows []row) (keys, postings, badBounds int) {
	for _, lists := range [][][]int32{p.byAssert, p.byStream} {
		for _, list := range lists {
			if len(list) > 0 {
				keys++
				postings += len(list)
			}
		}
	}
	n := len(rows)
	blocks := (n + zoneBlock - 1) / zoneBlock
	badBounds = max(len(p.zone)-blocks, blocks-len(p.zone))
	for slot := range min(n, len(p.zone)*zoneBlock) {
		if z := p.zone[slot/zoneBlock]; z == z && !(z >= rows[slot].time) {
			badBounds++
		}
	}
	return keys, postings, badBounds
}

// candidates returns the posting list a query walks — the shorter one
// when it names both an assertion and a stream — or indexed false when
// it names neither and every retained slot is a candidate.
func (l *RowLog) candidates(q StoreQuery) (list []int32, indexed bool) {
	postings := func(lists [][]int32, name string) []int32 {
		if id, ok := l.ids[name]; ok && int(id) < len(lists) {
			return lists[id]
		}
		return nil
	}
	p := &l.index
	switch {
	case q.Assertion != "" && q.Stream != "":
		a, s := postings(p.byAssert, q.Assertion), postings(p.byStream, q.Stream)
		if len(s) < len(a) {
			return s, true
		}
		return a, true
	case q.Assertion != "":
		return postings(p.byAssert, q.Assertion), true
	case q.Stream != "":
		return postings(p.byStream, q.Stream), true
	}
	return nil, false
}

// queryWork counts what a ByKey walk read: the candidates it examined and
// the zone bounds it compared.
type queryWork struct{ candidates, bounds int }

// query is Query's walk over the built index, counting a ByKey walk's
// work into work when it is not nil. It reads each candidate it examines
// once, building its row straight into the answer.
func (l *RowLog) query(q StoreQuery, work *queryWork) []Violation {
	p, size, head := &l.index, len(l.rows), l.head
	list, indexed := l.candidates(q)
	n := size
	if indexed {
		n = len(list)
	}
	// kept holds the matches the walk keeps, each candidate read once,
	// straight into the slot past the last one kept (next). It is sized
	// for what the walk can keep when every candidate matches — one filter
	// or none — and otherwise grows with the matches.
	most := n
	if q.Limit > 0 {
		most = min(q.Limit, n)
	}
	if q.Assertion != "" && q.Stream != "" {
		most = 0
	}
	kept := make([]Violation, 0, most+1)
	next := func(i int) *Violation { // reads the i-th oldest candidate
		if len(kept) == cap(kept) {
			kept = slices.Grow(kept, 1)
		}
		if indexed {
			i = int(list[i])
		} else if i += head; i >= size {
			i -= size
		}
		v := &kept[:len(kept)+1][len(kept)]
		l.violationAt(i, v)
		return v
	}
	keep := func() { kept = kept[:len(kept)+1] }

	if !q.ByKey {
		// Every match, or the newest q.Limit: from the newest back when
		// there is a limit to stop at.
		if q.Limit <= 0 {
			for i := 0; i < n; i++ {
				if q.Matches(*next(i)) {
					keep()
				}
			}
			return kept
		}
		for i := n - 1; i >= 0 && len(kept) < q.Limit; i-- {
			if q.Matches(*next(i)) {
				keep()
			}
		}
		slices.Reverse(kept)
		return kept
	}

	// picked orders kept: an entry packs a candidate's rank above its
	// index in kept, so that as ints entries sort by rank, and ranks break
	// key ties — a candidate older than everything in the heap never
	// displaces an equal key. A rank fits in 32 bits: postings are int32.
	const slotBits = math.MaxUint32
	picked := make([]int, 0, cap(kept)-1)
	order := func(a, b int) int {
		all := kept[:cap(kept)] // b may be the candidate past the kept ones
		if c := keyCompare(&all[a&slotBits], &all[b&slotBits]); c != 0 {
			return c
		}
		return a>>32 - b>>32
	}
	less := func(a, b int) bool { return order(a, b) < 0 }
	if q.Limit <= 0 {
		for i := 0; i < n; i++ {
			if q.Matches(*next(i)) {
				picked = append(picked, i<<32|len(kept))
				keep()
			}
		}
	} else {
		// picked is a min-heap of the q.Limit greatest candidates seen so
		// far. Candidate ranks [0, split) sit at ascending slots from head
		// on, ranks [split, n) at ascending slots below head: the two runs
		// of a wrapped ring, or one run when head is 0.
		split := size - head
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
				case slot >= size:
					slot -= size
				}
				if b := slot / zoneBlock; b != seen && b < len(p.zone) {
					seen = b
					bounds++
					// v.Time <= zone[b] < min.Time makes keyLess(v, min) hold
					// for every v in the block: none can enter the heap.
					if p.zone[b] < kept[picked[0]&slotBits].Time {
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
			v, c := next(i), i<<32|len(kept)
			switch {
			case !q.Matches(*v):
			case len(picked) < q.Limit:
				picked = append(picked, c)
				keep()
				siftUp(picked, less)
			case less(picked[0], c):
				k := picked[0] & slotBits
				kept[k] = *v
				picked[0] = i<<32 | k
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
	slices.SortFunc(picked, order)

	// Put kept in picked's order in place, one cycle of the permutation at
	// a time, marking each slot done as it is filled.
	for j := range picked {
		picked[j] &= slotBits
	}
	for start := range picked {
		if picked[start] == start {
			continue
		}
		first := kept[start]
		for dst := start; ; {
			from := picked[dst]
			picked[dst] = dst
			if from == start {
				kept[dst] = first
				break
			}
			kept[dst], dst = kept[from], from
		}
	}
	return kept
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
