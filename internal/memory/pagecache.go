package memory

import (
	"fmt"

	"clockwork/internal/action"
)

// DefaultPageSize is the paper's page size (16 MB).
const DefaultPageSize = 16 * 1024 * 1024

// DefaultWorkspaceBytes is the transient execution workspace (512 MB).
const DefaultWorkspaceBytes = 512 * 1024 * 1024

// DefaultIOCacheBytes is the input/output staging area (512 MB).
const DefaultIOCacheBytes = 512 * 1024 * 1024

// PageCache allocates fixed-size pages to model instances with LRU
// bookkeeping. It is deterministic: identical operation sequences produce
// identical states, which the controller relies on to mirror workers.
//
// Keys are dense model IDs, so residency is a slice indexed by key and
// the recency order is an intrusive doubly linked list threaded through
// the same slice: no hashing, no per-entry allocation. The slice grows to
// the highest key ever allocated — it is sized by the models a GPU has
// actually held, not by the registry.
type PageCache struct {
	pageSize   int64
	totalPages int
	freePages  int
	resident   int
	entries    []cacheEntry   // by key; pages == 0 means not resident
	head, tail action.ModelID // most and least recently used; noKey when empty
}

// noKey terminates the recency list.
const noKey action.ModelID = -1

// cacheEntry is one key's slot. newer and older link resident entries
// in recency order (newer toward head); both are noKey off the list.
type cacheEntry struct {
	pages, pinned int32
	newer, older  action.ModelID
}

// NewPageCache returns a cache of capacityBytes split into pageSize pages.
func NewPageCache(capacityBytes, pageSize int64) *PageCache {
	if pageSize <= 0 {
		panic("memory: non-positive page size")
	}
	if capacityBytes < 0 {
		panic("memory: negative capacity")
	}
	total := int(capacityBytes / pageSize)
	return &PageCache{
		pageSize:   pageSize,
		totalPages: total,
		freePages:  total,
		head:       noKey,
		tail:       noKey,
	}
}

// PageSize returns the page size in bytes.
func (c *PageCache) PageSize() int64 { return c.pageSize }

// TotalPages returns the cache capacity in pages.
func (c *PageCache) TotalPages() int { return c.totalPages }

// FreePages returns the number of unallocated pages.
func (c *PageCache) FreePages() int { return c.freePages }

// UsedPages returns the number of allocated pages.
func (c *PageCache) UsedPages() int { return c.totalPages - c.freePages }

// Len returns the number of resident entries.
func (c *PageCache) Len() int { return c.resident }

// entry returns key's slot when it is resident, nil otherwise.
func (c *PageCache) entry(key action.ModelID) *cacheEntry {
	if key >= 0 && int(key) < len(c.entries) && c.entries[key].pages > 0 {
		return &c.entries[key]
	}
	return nil
}

// Has reports whether key holds pages.
func (c *PageCache) Has(key action.ModelID) bool { return c.entry(key) != nil }

// PagesOf returns the pages held by key (0 if absent).
func (c *PageCache) PagesOf(key action.ModelID) int {
	if e := c.entry(key); e != nil {
		return int(e.pages)
	}
	return 0
}

// Alloc reserves pages for key. It fails (without side effects) if key is
// negative or already resident, pages is non-positive, or there are not
// enough free pages — mirroring LOAD's "abort if no pages" semantics
// (§5.2).
func (c *PageCache) Alloc(key action.ModelID, pages int) error {
	if pages <= 0 {
		return fmt.Errorf("memory: alloc %d: non-positive page count %d", key, pages)
	}
	if key < 0 {
		return fmt.Errorf("memory: alloc %d: negative key", key)
	}
	if c.entry(key) != nil {
		return fmt.Errorf("memory: alloc %d: already resident", key)
	}
	if pages > c.freePages {
		return fmt.Errorf("memory: alloc %d: need %d pages, %d free", key, pages, c.freePages)
	}
	c.entries = action.Grow(c.entries, key)
	c.entries[key] = cacheEntry{pages: int32(pages)}
	c.pushFront(key)
	c.resident++
	c.freePages -= pages
	return nil
}

// Free releases key's pages (UNLOAD). Freeing an absent key is an error;
// freeing a pinned key is an error because the model is executing.
func (c *PageCache) Free(key action.ModelID) error {
	e := c.entry(key)
	if e == nil {
		return fmt.Errorf("memory: free %d: not resident", key)
	}
	if e.pinned > 0 {
		return fmt.Errorf("memory: free %d: pinned %d times", key, e.pinned)
	}
	c.unlink(key)
	c.freePages += int(e.pages)
	c.resident--
	*e = cacheEntry{}
	return nil
}

// Touch marks key as most recently used. Absent keys are ignored.
func (c *PageCache) Touch(key action.ModelID) {
	if c.entry(key) != nil && c.head != key {
		c.unlink(key)
		c.pushFront(key)
	}
}

// pushFront links an off-list resident key in as most recently used.
func (c *PageCache) pushFront(key action.ModelID) {
	e := &c.entries[key]
	e.newer, e.older = noKey, c.head
	if c.head != noKey {
		c.entries[c.head].newer = key
	} else {
		c.tail = key
	}
	c.head = key
}

// unlink takes a resident key off the recency list.
func (c *PageCache) unlink(key action.ModelID) {
	e := &c.entries[key]
	if e.newer != noKey {
		c.entries[e.newer].older = e.older
	} else {
		c.head = e.older
	}
	if e.older != noKey {
		c.entries[e.older].newer = e.newer
	} else {
		c.tail = e.newer
	}
}

// Pin prevents key from being freed or evicted while in use (e.g. during
// EXEC). Pins nest.
func (c *PageCache) Pin(key action.ModelID) error {
	e := c.entry(key)
	if e == nil {
		return fmt.Errorf("memory: pin %d: not resident", key)
	}
	e.pinned++
	return nil
}

// Unpin releases one pin.
func (c *PageCache) Unpin(key action.ModelID) error {
	e := c.entry(key)
	if e == nil {
		return fmt.Errorf("memory: unpin %d: not resident", key)
	}
	if e.pinned == 0 {
		return fmt.Errorf("memory: unpin %d: not pinned", key)
	}
	e.pinned--
	return nil
}

// Pinned returns key's pin count.
func (c *PageCache) Pinned(key action.ModelID) int {
	if e := c.entry(key); e != nil {
		return int(e.pinned)
	}
	return 0
}

// LRUVictim returns the least-recently-used unpinned entry, if any.
func (c *PageCache) LRUVictim() (action.ModelID, bool) {
	for k := c.tail; k != noKey; k = c.entries[k].newer {
		if c.entries[k].pinned == 0 {
			return k, true
		}
	}
	return 0, false
}

// ScanLRU visits resident keys from least- to most-recently-used until
// f returns false — eviction selection without materialising the whole
// key list. f must not mutate the cache.
func (c *PageCache) ScanLRU(f func(key action.ModelID) bool) {
	for k := c.tail; k != noKey; k = c.entries[k].newer {
		if !f(k) {
			return
		}
	}
}

// Keys returns resident keys in most-recently-used-first order.
func (c *PageCache) Keys() []action.ModelID {
	out := make([]action.ModelID, 0, c.resident)
	for k := c.head; k != noKey; k = c.entries[k].older {
		out = append(out, k)
	}
	return out
}

// CheckInvariants validates internal consistency; tests call it after
// operation sequences.
func (c *PageCache) CheckInvariants() error {
	if c.freePages < 0 || c.freePages > c.totalPages {
		return fmt.Errorf("memory: free pages %d out of [0,%d]", c.freePages, c.totalPages)
	}
	// Walk the list head to tail: every hop is a resident entry whose
	// back link agrees, and the walk ends at tail within resident hops —
	// so it visits that many distinct slots.
	sum, linked, prev := 0, 0, noKey
	for k := c.head; k != noKey; prev, k = k, c.entries[k].older {
		e := c.entry(k)
		if e == nil || e.newer != prev || e.pinned < 0 {
			return fmt.Errorf("memory: lru hop %d → %d: not a resident entry linked back", prev, k)
		}
		if linked++; linked > c.resident {
			return fmt.Errorf("memory: lru longer than the %d resident entries", c.resident)
		}
		sum += int(e.pages)
	}
	// Every resident slot is linked exactly once iff the walk saw all of
	// them; every other slot is zero.
	slots := 0
	for i, e := range c.entries {
		if e.pages > 0 {
			slots++
		} else if e != (cacheEntry{}) {
			return fmt.Errorf("memory: free slot %d not zeroed: %+v", i, e)
		}
	}
	if c.tail != prev || linked != slots || linked != c.resident {
		return fmt.Errorf("memory: lru links %d entries ending at %d; %d slots resident, count %d, tail %d",
			linked, prev, slots, c.resident, c.tail)
	}
	if sum != c.totalPages-c.freePages {
		return fmt.Errorf("memory: allocated pages %d != total-free %d", sum, c.totalPages-c.freePages)
	}
	return nil
}

// String summarises occupancy.
func (c *PageCache) String() string {
	return fmt.Sprintf("pagecache{%d/%d pages used, %d models}", c.UsedPages(), c.totalPages, c.resident)
}
