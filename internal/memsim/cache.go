package memsim

// LRUCache models the testbed's shared last-level cache at record
// granularity: a record is either fully resident or absent. Record-level
// rather than line-level granularity keeps the model O(1) per access
// while preserving the first-order effect the paper's measurements embed
// — repeatedly touched small hot records are served at cache speed, large
// or cold records pay full memory cost.
//
// The cache sits on the replay hot path (one Access per request), so it
// is built from flat slices instead of container/list plus a built-in
// map: resident records live in a slot arena threaded into an intrusive
// doubly-linked recency list, and an open-addressed table with linear
// probing maps record IDs to slots. Record IDs are already FNV-64a
// hashes (kvstore.KeyID), so the table indexes them directly without
// re-hashing. Steady-state accesses — hits and miss/evict cycles alike —
// allocate nothing.
type LRUCache struct {
	capacity int64
	used     int64

	slots []cacheSlot
	free  []int32 // recycled slot indices
	head  int32   // most recently used, -1 when empty
	tail  int32   // least recently used, -1 when empty
	size  int     // resident records

	table []int32 // open-addressed id index; -1 = empty, else slot index
	mask  uint64

	hits, misses int64
}

type cacheSlot struct {
	id         uint64
	bytes      int64
	prev, next int32  // intrusive recency list, -1 terminated
	pos        uint32 // current probe-table position, kept in sync by moves
}

// minTableSize keeps the probe table a power of two; it doubles whenever
// residency reaches half the table, bounding probe sequences.
const minTableSize = 64

// NewLRUCache creates a cache with the given byte capacity.
func NewLRUCache(capacity int64) *LRUCache {
	if capacity <= 0 {
		panic("memsim: cache capacity must be positive")
	}
	c := &LRUCache{capacity: capacity, head: -1, tail: -1}
	c.resetTable(minTableSize)
	return c
}

func (c *LRUCache) resetTable(n int) {
	c.table = make([]int32, n)
	for i := range c.table {
		c.table[i] = -1
	}
	c.mask = uint64(n - 1)
}

// findPos probes for id, returning its table position if resident or the
// position where it would be inserted.
func (c *LRUCache) findPos(id uint64) (pos uint64, found bool) {
	pos = id & c.mask
	for {
		s := c.table[pos]
		if s < 0 {
			return pos, false
		}
		if c.slots[s].id == id {
			return pos, true
		}
		pos = (pos + 1) & c.mask
	}
}

func (c *LRUCache) grow() {
	old := c.table
	c.resetTable(len(old) * 2)
	for _, s := range old {
		if s >= 0 {
			pos, _ := c.findPos(c.slots[s].id)
			c.table[pos] = s
			c.slots[s].pos = uint32(pos)
		}
	}
}

// tableDelete empties the table position pos and compacts the probe
// cluster behind it (backward-shift deletion), so lookups never need
// tombstones.
func (c *LRUCache) tableDelete(pos uint64) {
	i := pos
	for {
		c.table[i] = -1
		j := i
		for {
			j = (j + 1) & c.mask
			s := c.table[j]
			if s < 0 {
				return
			}
			h := c.slots[s].id & c.mask
			// Move the entry at j into the hole at i unless its home
			// position lies cyclically within (i, j] — in that case the
			// hole does not break its probe sequence.
			var move bool
			if j > i {
				move = h <= i || h > j
			} else {
				move = h <= i && h > j
			}
			if move {
				c.table[i] = s
				c.slots[s].pos = uint32(i)
				i = j
				break
			}
		}
	}
}

func (c *LRUCache) unlink(s int32) {
	sl := &c.slots[s]
	if sl.prev >= 0 {
		c.slots[sl.prev].next = sl.next
	} else {
		c.head = sl.next
	}
	if sl.next >= 0 {
		c.slots[sl.next].prev = sl.prev
	} else {
		c.tail = sl.prev
	}
}

func (c *LRUCache) pushFront(s int32) {
	sl := &c.slots[s]
	sl.prev = -1
	sl.next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}

// removeAt evicts the record at table position pos.
func (c *LRUCache) removeAt(pos uint64) {
	s := c.table[pos]
	c.unlink(s)
	c.tableDelete(pos)
	c.used -= c.slots[s].bytes
	c.size--
	c.free = append(c.free, s)
}

func (c *LRUCache) insert(id uint64, size int64) {
	if (c.size+1)*2 > len(c.table) {
		c.grow()
	}
	var s int32
	if n := len(c.free); n > 0 {
		s = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.slots = append(c.slots, cacheSlot{})
		s = int32(len(c.slots) - 1)
	}
	pos, _ := c.findPos(id)
	c.slots[s] = cacheSlot{id: id, bytes: size, prev: -1, next: -1, pos: uint32(pos)}
	c.table[pos] = s
	c.pushFront(s)
	c.used += size
	c.size++
}

// Access records a touch of rec and reports whether it was a hit. On a
// miss the record is inserted (if it fits at all) and cold entries are
// evicted LRU-first. Records larger than the whole cache never hit.
func (c *LRUCache) Access(rec RecordRef) bool {
	size := int64(rec.Bytes)
	if pos, ok := c.findPos(rec.ID); ok {
		s := c.table[pos]
		if c.slots[s].bytes == size {
			if c.head != s {
				c.unlink(s)
				c.pushFront(s)
			}
			c.hits++
			return true
		}
		// Size changed (record overwritten with a different value):
		// treat as a miss and reinsert below.
		c.removeAt(pos)
	}
	c.misses++
	if size > c.capacity {
		return false // streaming record, uncacheable
	}
	for c.used+size > c.capacity {
		c.evictOldest()
	}
	c.insert(rec.ID, size)
	return false
}

// Remove invalidates a record, if present.
func (c *LRUCache) Remove(id uint64) {
	if pos, ok := c.findPos(id); ok {
		c.removeAt(pos)
	}
}

func (c *LRUCache) evictOldest() {
	if c.tail < 0 {
		return
	}
	// The slot remembers its own probe-table position, so eviction does
	// not re-probe; the sanity check keeps index/list desyncs loud.
	pos := uint64(c.slots[c.tail].pos)
	if c.table[pos] != c.tail {
		panic("memsim: cache recency list out of sync with index")
	}
	c.removeAt(pos)
}

// Flush empties the cache (used between baseline runs so each starts
// cold, as the paper's repeated fresh executions do). The probe table
// keeps its size, since the next run typically reaches similar residency.
func (c *LRUCache) Flush() {
	c.slots = c.slots[:0]
	c.free = c.free[:0]
	c.head, c.tail = -1, -1
	c.size = 0
	c.used = 0
	c.resetTable(len(c.table))
}

// ResetStats zeroes the hit/miss counters without touching contents.
func (c *LRUCache) ResetStats() { c.hits, c.misses = 0, 0 }

// Credit adds hits and misses to the counters without touching
// contents — the accounting half of accesses whose outcomes were
// decided elsewhere (the server's LLC outcome memo, DESIGN.md §12).
func (c *LRUCache) Credit(hits, misses int64) {
	c.hits += hits
	c.misses += misses
}

// Cold reports that the cache is empty and has counted no access since
// its counters were last reset — the state Flush plus ResetStats leave,
// from which a replay's outcomes depend on the request stream alone.
func (c *LRUCache) Cold() bool { return c.size == 0 && c.hits == 0 && c.misses == 0 }

// Used reports resident bytes.
func (c *LRUCache) Used() int64 { return c.used }

// Capacity reports the configured capacity.
func (c *LRUCache) Capacity() int64 { return c.capacity }

// Len reports the number of resident records.
func (c *LRUCache) Len() int { return c.size }

// Hits reports the number of accesses served from cache.
func (c *LRUCache) Hits() int64 { return c.hits }

// Misses reports the number of accesses that went to memory.
func (c *LRUCache) Misses() int64 { return c.misses }

// HitRate reports hits / (hits + misses), or 0 when no accesses occurred.
func (c *LRUCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
