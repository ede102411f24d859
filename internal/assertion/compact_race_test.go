package assertion

import (
	"strconv"
	"sync"
	"testing"
)

// TestRecordConcurrentWithCompact drives MemStore.Append against a churn
// of capped and budgeted Compact and asserts the monotonicity contract: lifetime
// counters (TotalFired, per-assertion Stats.Fired) never regress, no
// matter what retention evicts from the queryable log.
func TestRecordConcurrentWithCompact(t *testing.T) {
	rec := NewMemStore(0)
	const writers, perWriter = 4, 300

	stop := make(chan struct{})
	var compactors sync.WaitGroup
	compactors.Add(2)
	go func() {
		defer compactors.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rec.Compact(0, 25)
			}
		}
	}()
	go func() {
		defer compactors.Done()
		budgets := map[string]int{"w0": 10, "w1": 10}
		for {
			select {
			case <-stop:
				return
			default:
				rec.Compact(0, 0, budgets)
			}
		}
	}()

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			name := "w" + strconv.Itoa(w)
			lastFired, lastTotal := 0, 0
			for i := 0; i < perWriter; i++ {
				rec.Append(Violation{Assertion: name, SampleIndex: i, Severity: 1, IngestUnix: 100})
				if st, ok := rec.Stats(name); !ok || st.Fired < lastFired {
					t.Errorf("Stats(%s).Fired regressed: %d then %d", name, lastFired, st.Fired)
					return
				} else {
					lastFired = st.Fired
				}
				if total := rec.TotalFired(); total < lastTotal {
					t.Errorf("TotalFired regressed: %d then %d", lastTotal, total)
					return
				} else {
					lastTotal = total
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	compactors.Wait()

	if got := rec.TotalFired(); got != writers*perWriter {
		t.Fatalf("TotalFired = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		name := "w" + strconv.Itoa(w)
		if st, ok := rec.Stats(name); !ok || st.Fired != perWriter {
			t.Fatalf("Stats(%s).Fired = %d, want %d", name, st.Fired, perWriter)
		}
	}
}

// TestCompactRemovesOnlyOldestPerAssertion is the retention property
// test: for a spread of logs and caps, what survives compaction is
// exactly the newest-K suffix of each assertion's violations — never a
// newer entry evicted while an older one stays.
func TestCompactRemovesOnlyOldestPerAssertion(t *testing.T) {
	// Deterministic xorshift so failures reproduce.
	x := uint64(99)
	rng := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for trial := 0; trial < 50; trial++ {
		rec := NewMemStore(0)
		n := 10 + int(rng()%80)
		perName := make(map[string][]int)
		for i := 0; i < n; i++ {
			name := "a" + strconv.Itoa(int(rng()%5))
			rec.Append(Violation{Assertion: name, SampleIndex: i, Severity: 1, IngestUnix: int64(100 + i)})
			perName[name] = append(perName[name], i)
		}
		cap := 1 + int(rng()%5)
		rec.Compact(0, cap)

		got := make(map[string][]int)
		for _, v := range rec.Query(StoreQuery{}) {
			got[v.Assertion] = append(got[v.Assertion], v.SampleIndex)
		}
		for name, idxs := range perName {
			start := 0
			if len(idxs) > cap {
				start = len(idxs) - cap
			}
			want := idxs[start:]
			g := got[name]
			if len(g) != len(want) {
				t.Fatalf("trial %d cap %d %s: kept %v, want suffix %v", trial, cap, name, g, want)
			}
			for i := range want {
				if g[i] != want[i] {
					t.Fatalf("trial %d cap %d %s: kept %v, want suffix %v", trial, cap, name, g, want)
				}
			}
		}
	}
}
