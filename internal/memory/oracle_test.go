package memory

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clockwork/internal/action"
)

// oracleCache is the map + container/list page cache PageCache replaced,
// kept as the reference the slice-and-intrusive-list implementation is
// checked against: same operations, same errors, same recency order.
type oracleCache struct {
	totalPages int
	freePages  int
	entries    map[action.ModelID]*oracleEntry
	lru        *list.List // front = most recently used
}

type oracleEntry struct {
	key    action.ModelID
	pages  int
	pinned int
	elem   *list.Element
}

func newOracleCache(pages int) *oracleCache {
	return &oracleCache{
		totalPages: pages,
		freePages:  pages,
		entries:    make(map[action.ModelID]*oracleEntry),
		lru:        list.New(),
	}
}

func (c *oracleCache) Alloc(key action.ModelID, pages int) error {
	if pages <= 0 {
		return fmt.Errorf("memory: alloc %d: non-positive page count %d", key, pages)
	}
	if key < 0 {
		return fmt.Errorf("memory: alloc %d: negative key", key)
	}
	if _, exists := c.entries[key]; exists {
		return fmt.Errorf("memory: alloc %d: already resident", key)
	}
	if pages > c.freePages {
		return fmt.Errorf("memory: alloc %d: need %d pages, %d free", key, pages, c.freePages)
	}
	e := &oracleEntry{key: key, pages: pages}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.freePages -= pages
	return nil
}

func (c *oracleCache) Free(key action.ModelID) error {
	e, ok := c.entries[key]
	if !ok {
		return fmt.Errorf("memory: free %d: not resident", key)
	}
	if e.pinned > 0 {
		return fmt.Errorf("memory: free %d: pinned %d times", key, e.pinned)
	}
	c.lru.Remove(e.elem)
	delete(c.entries, key)
	c.freePages += e.pages
	return nil
}

func (c *oracleCache) Touch(key action.ModelID) {
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
	}
}

func (c *oracleCache) Pin(key action.ModelID) error {
	e, ok := c.entries[key]
	if !ok {
		return fmt.Errorf("memory: pin %d: not resident", key)
	}
	e.pinned++
	return nil
}

func (c *oracleCache) Unpin(key action.ModelID) error {
	e, ok := c.entries[key]
	if !ok {
		return fmt.Errorf("memory: unpin %d: not resident", key)
	}
	if e.pinned == 0 {
		return fmt.Errorf("memory: unpin %d: not pinned", key)
	}
	e.pinned--
	return nil
}

func (c *oracleCache) LRUVictim() (action.ModelID, bool) {
	for elem := c.lru.Back(); elem != nil; elem = elem.Prev() {
		if e := elem.Value.(*oracleEntry); e.pinned == 0 {
			return e.key, true
		}
	}
	return 0, false
}

func (c *oracleCache) ScanLRU(f func(key action.ModelID) bool) {
	for elem := c.lru.Back(); elem != nil; elem = elem.Prev() {
		if !f(elem.Value.(*oracleEntry).key) {
			return
		}
	}
}

func (c *oracleCache) Keys() []action.ModelID {
	out := make([]action.ModelID, 0, len(c.entries))
	for elem := c.lru.Front(); elem != nil; elem = elem.Next() {
		out = append(out, elem.Value.(*oracleEntry).key)
	}
	return out
}

// TestPageCacheMatchesOracle drives both implementations with the same
// seeded Alloc/Free/Touch/Pin/Unpin sequence — keys sparse enough that
// the slice grows in steps, caches small enough that allocations fail —
// and requires identical errors, recency order, victim and occupancy
// after every step.
func TestPageCacheMatchesOracle(t *testing.T) {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	scan := func(scanLRU func(func(action.ModelID) bool), stopAfter int) []action.ModelID {
		var seen []action.ModelID
		scanLRU(func(k action.ModelID) bool {
			seen = append(seen, k)
			return len(seen) < stopAfter
		})
		return seen
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		const pages = 40
		got, want := NewPageCache(pages*DefaultPageSize, DefaultPageSize), newOracleCache(pages)
		for step := 0; step < 2000; step++ {
			key := action.ModelID(r.Intn(24)*7 - 7) // −7 (rejected), 0, 7, … 161
			var ge, we error
			op := r.Intn(6)
			switch op {
			case 0, 1:
				n := r.Intn(12) - 1 // −1 and 0 are rejected
				ge, we = got.Alloc(key, n), want.Alloc(key, n)
			case 2:
				ge, we = got.Free(key), want.Free(key)
			case 3:
				got.Touch(key)
				want.Touch(key)
			case 4:
				ge, we = got.Pin(key), want.Pin(key)
			case 5:
				ge, we = got.Unpin(key), want.Unpin(key)
			}
			at := fmt.Sprintf("seed %d step %d (op %d key %d)", seed, step, op, key)
			if errText(ge) != errText(we) {
				t.Fatalf("%s: error %q, oracle %q", at, errText(ge), errText(we))
			}
			if g, w := got.Keys(), want.Keys(); !slices.Equal(g, w) {
				t.Fatalf("%s: Keys %v, oracle %v", at, g, w)
			}
			stop := 1 + r.Intn(5)
			if g, w := scan(got.ScanLRU, stop), scan(want.ScanLRU, stop); !slices.Equal(g, w) {
				t.Fatalf("%s: ScanLRU %v, oracle %v", at, g, w)
			}
			gv, gok := got.LRUVictim()
			wv, wok := want.LRUVictim()
			if gv != wv || gok != wok {
				t.Fatalf("%s: LRUVictim %d/%v, oracle %d/%v", at, gv, gok, wv, wok)
			}
			if got.FreePages() != want.freePages || got.Len() != len(want.entries) {
				t.Fatalf("%s: free %d len %d, oracle %d/%d", at, got.FreePages(), got.Len(), want.freePages, len(want.entries))
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
		}
	}
}
