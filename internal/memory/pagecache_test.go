package memory

import (
	"testing"
	"testing/quick"

	"clockwork/internal/action"
)

// Keys the tests use; ghost is never allocated.
const (
	keyA action.ModelID = iota + 1
	keyB
	keyC
	ghost action.ModelID = 99
)

func newCache(pages int) *PageCache {
	return NewPageCache(int64(pages)*DefaultPageSize, DefaultPageSize)
}

func TestPageCacheBasics(t *testing.T) {
	c := newCache(10)
	if c.TotalPages() != 10 || c.FreePages() != 10 || c.UsedPages() != 0 {
		t.Fatal("fresh cache wrong")
	}
	if c.PageSize() != DefaultPageSize {
		t.Fatal("page size wrong")
	}
	if err := c.Alloc(keyA, 7); err != nil {
		t.Fatal(err)
	}
	if c.FreePages() != 3 || c.UsedPages() != 7 || !c.Has(keyA) || c.PagesOf(keyA) != 7 {
		t.Fatal("post-alloc state wrong")
	}
	if err := c.Free(keyA); err != nil {
		t.Fatal(err)
	}
	if c.FreePages() != 10 || c.Has(keyA) || c.PagesOf(keyA) != 0 {
		t.Fatal("post-free state wrong")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPageCacheAllocFailures(t *testing.T) {
	c := newCache(10)
	if err := c.Alloc(keyA, 0); err == nil {
		t.Fatal("zero pages should fail")
	}
	if err := c.Alloc(keyA, -1); err == nil {
		t.Fatal("negative pages should fail")
	}
	if err := c.Alloc(keyA, 11); err == nil {
		t.Fatal("oversized alloc should fail")
	}
	if err := c.Alloc(keyA, 6); err != nil {
		t.Fatal(err)
	}
	if err := c.Alloc(keyA, 1); err == nil {
		t.Fatal("double alloc should fail")
	}
	if err := c.Alloc(keyB, 5); err == nil {
		t.Fatal("alloc beyond free should fail")
	}
	// Failure must not change state.
	if c.FreePages() != 4 {
		t.Fatalf("free pages = %d after failed allocs", c.FreePages())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPageCacheFreeFailures(t *testing.T) {
	c := newCache(4)
	if err := c.Free(ghost); err == nil {
		t.Fatal("free of absent key should fail")
	}
	mustAlloc(t, c, keyA, 2)
	if err := c.Pin(keyA); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(keyA); err == nil {
		t.Fatal("free of pinned key should fail")
	}
	if err := c.Unpin(keyA); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(keyA); err != nil {
		t.Fatal(err)
	}
}

func TestPinSemantics(t *testing.T) {
	c := newCache(4)
	if err := c.Pin(ghost); err == nil {
		t.Fatal("pin of absent key should fail")
	}
	if err := c.Unpin(ghost); err == nil {
		t.Fatal("unpin of absent key should fail")
	}
	mustAlloc(t, c, keyA, 1)
	if err := c.Unpin(keyA); err == nil {
		t.Fatal("unpin of unpinned key should fail")
	}
	_ = c.Pin(keyA)
	_ = c.Pin(keyA)
	if c.Pinned(keyA) != 2 {
		t.Fatalf("pin count = %d", c.Pinned(keyA))
	}
	_ = c.Unpin(keyA)
	if c.Pinned(keyA) != 1 {
		t.Fatal("nested pins broken")
	}
	if c.Pinned(ghost) != 0 {
		t.Fatal("absent key pin count should be 0")
	}
}

func TestLRUVictimOrder(t *testing.T) {
	c := newCache(10)
	mustAlloc(t, c, keyA, 1)
	mustAlloc(t, c, keyB, 1)
	mustAlloc(t, c, keyC, 1)
	// LRU order: keyA oldest.
	if v, ok := c.LRUVictim(); !ok || v != keyA {
		t.Fatalf("victim = %d", v)
	}
	c.Touch(keyA) // now keyB is oldest
	if v, ok := c.LRUVictim(); !ok || v != keyB {
		t.Fatalf("victim = %d", v)
	}
	_ = c.Pin(keyB) // pinned entries are skipped
	if v, ok := c.LRUVictim(); !ok || v != keyC {
		t.Fatalf("victim = %d", v)
	}
	_ = c.Pin(keyC)
	_ = c.Pin(keyA)
	if _, ok := c.LRUVictim(); ok {
		t.Fatal("all pinned: no victim expected")
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := newCache(10)
	mustAlloc(t, c, keyA, 1)
	mustAlloc(t, c, keyB, 1)
	c.Touch(keyA)
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != keyA || keys[1] != keyB {
		t.Fatalf("keys = %v", keys)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestTouchAbsentKeyIsNoop(t *testing.T) {
	c := newCache(2)
	c.Touch(ghost) // must not panic
}

func TestPageCachePanicsOnBadConstruction(t *testing.T) {
	for i, fn := range []func(){
		func() { NewPageCache(100, 0) },
		func() { NewPageCache(-1, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestStringNonEmpty(t *testing.T) {
	if newCache(2).String() == "" {
		t.Fatal("empty string")
	}
}

func mustAlloc(t *testing.T, c *PageCache, key action.ModelID, pages int) {
	t.Helper()
	if err := c.Alloc(key, pages); err != nil {
		t.Fatal(err)
	}
}

// Property: under arbitrary alloc/free/touch/pin sequences the cache
// never violates its invariants, and free pages always equals capacity
// minus the sum of live allocations.
func TestPageCacheInvariantsProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Pages uint8
	}
	f := func(ops []op) bool {
		c := newCache(32)
		live := map[action.ModelID]int{}
		pins := map[action.ModelID]int{}
		for _, o := range ops {
			key := action.ModelID(o.Key % 8)
			switch o.Kind % 5 {
			case 0: // alloc
				pages := int(o.Pages%10) + 1
				err := c.Alloc(key, pages)
				if _, exists := live[key]; exists {
					if err == nil {
						return false // double alloc must fail
					}
				} else if pages <= c.TotalPages()-sum(live) {
					if err != nil {
						return false // should have succeeded
					}
					live[key] = pages
				} else if err == nil {
					return false // over-capacity must fail
				}
			case 1: // free
				err := c.Free(key)
				if _, exists := live[key]; exists && pins[key] == 0 {
					if err != nil {
						return false
					}
					delete(live, key)
				} else if err == nil {
					return false
				}
			case 2: // touch
				c.Touch(key)
			case 3: // pin
				if err := c.Pin(key); err == nil {
					pins[key]++
				}
			case 4: // unpin
				if err := c.Unpin(key); err == nil {
					pins[key]--
				}
			}
			if err := c.CheckInvariants(); err != nil {
				return false
			}
			if c.FreePages() != c.TotalPages()-sum(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sum(m map[action.ModelID]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
