package proc

import "tracep/internal/rename"

// This file holds the flat side tables of the cycle engine: the subscriber
// table (global-value wakeups, indexed by rename slot) and the load-record
// index (store/undo snooping, open-addressed by data address). Both replace
// maps that the hot loop used to probe every cycle; the flat forms are
// direct-indexed, recycle their own storage, and iterate in deterministic
// order.

// subSlot is one row of the subscriber table, indexed by a tag's physical
// slot (rename.SlotIndex). The row is stamped with the tag it serves: when
// the register file recycles the slot for a new tag, the stale list is
// truncated in place on the next subscription, so list capacity is reused
// without a pool.
type subSlot struct {
	tag  rename.Tag
	list []subRef
}

// loadTable is an open-addressed hash table from data address to the bucket
// of performed loads at that address. Linear probing with backward-shift
// deletion keeps chains tombstone-free; buckets are pooled slices of
// gen-stamped references, so the record churn of the load stream performs no
// steady-state allocation. Only keyed operations exist — nothing iterates
// the table — so probe layout never reaches simulation output.
type loadTable struct {
	keys []uint32
	used []bool
	recs [][]instRef
	n    int
	pool [][]instRef // emptied buckets awaiting reuse
}

// loadTableMinSize seeds the table at first use; must be a power of two.
const loadTableMinSize = 256

// hashAddr spreads a data address over the table. Fibonacci multiplicative
// hashing; the low bits stay distinct for the sequential/strided address
// streams loads actually produce.
//
//tracep:noalloc
func hashAddr(a uint32) uint32 { return a * 2654435761 }

// find returns the slot index holding addr, or -1.
//
//tracep:noalloc
func (t *loadTable) find(addr uint32) int {
	if t.n == 0 {
		return -1
	}
	mask := uint32(len(t.keys) - 1)
	i := hashAddr(addr) & mask
	for t.used[i] {
		if t.keys[i] == addr {
			return int(i)
		}
		i = (i + 1) & mask
	}
	return -1
}

// get returns the bucket at addr (nil when absent).
//
//tracep:noalloc
func (t *loadTable) get(addr uint32) []instRef {
	i := t.find(addr)
	if i < 0 {
		return nil
	}
	return t.recs[i]
}

// slotFor returns the slot index for addr, claiming an empty slot (growing
// the table when past 3/4 load) if absent. A claimed slot's bucket comes
// from the recycle pool when one is available.
//
//tracep:noalloc
func (t *loadTable) slotFor(addr uint32) int {
	if (t.n+1)*4 > len(t.keys)*3 {
		//tracep:allow amortised: the table doubles, then serves a power-of-two run of inserts
		t.grow()
	}
	mask := uint32(len(t.keys) - 1)
	i := hashAddr(addr) & mask
	for t.used[i] {
		if t.keys[i] == addr {
			return int(i)
		}
		i = (i + 1) & mask
	}
	t.used[i] = true
	t.keys[i] = addr
	t.n++
	if t.recs[i] == nil {
		if n := len(t.pool); n > 0 {
			t.recs[i] = t.pool[n-1]
			t.pool = t.pool[:n-1]
		}
	}
	return int(i)
}

// reset empties the table for a new run, pooling every bucket and keeping
// the slot arrays.
func (t *loadTable) reset() {
	for i, b := range t.recs {
		if cap(b) > 0 {
			t.pool = append(t.pool, b[:0])
		}
		t.recs[i] = nil
	}
	clear(t.keys)
	clear(t.used)
	t.n = 0
}

// grow doubles the table (or seeds it) and reinserts every occupied slot.
func (t *loadTable) grow() {
	size := loadTableMinSize
	if len(t.keys) > 0 {
		size = len(t.keys) * 2
	}
	oldKeys, oldUsed, oldRecs := t.keys, t.used, t.recs
	t.keys = make([]uint32, size)
	t.used = make([]bool, size)
	t.recs = make([][]instRef, size)
	mask := uint32(size - 1)
	for j, u := range oldUsed {
		if !u {
			continue
		}
		i := hashAddr(oldKeys[j]) & mask
		for t.used[i] {
			i = (i + 1) & mask
		}
		t.used[i] = true
		t.keys[i] = oldKeys[j]
		t.recs[i] = oldRecs[j]
	}
}

// del frees slot i, recycling its bucket and back-shifting the probe chain
// so lookups never cross tombstones.
//
//tracep:noalloc
func (t *loadTable) del(i int) {
	if b := t.recs[i]; cap(b) > 0 {
		//tracep:allow pool return: the emptied bucket is recycled
		t.pool = append(t.pool, b[:0])
	}
	t.recs[i] = nil
	mask := len(t.keys) - 1
	j, k := i, i
	for {
		k = (k + 1) & mask
		if !t.used[k] {
			break
		}
		// The entry at k may slide into the hole at j iff its home slot is
		// cyclically at or before j (otherwise it would move ahead of where
		// probing starts for it).
		h := int(hashAddr(t.keys[k])) & mask
		if (k-h)&mask >= (k-j)&mask {
			t.keys[j] = t.keys[k]
			t.recs[j] = t.recs[k]
			t.recs[k] = nil
			j = k
		}
	}
	t.used[j] = false
	t.keys[j] = 0
	t.n--
}
