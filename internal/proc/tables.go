package proc

import (
	"tracep/internal/arb"
	"tracep/internal/rename"
)

// This file holds the flat side tables of the cycle engine: the subscriber
// table (global-value wakeups, indexed by rename slot) and the ARB table
// (speculative store versions and load-snoop records, open-addressed by data
// address). Both replace maps that the hot loop used to probe every cycle;
// the flat forms are direct-indexed, recycle their own storage, and iterate
// in deterministic order.

// subSlot is one row of the subscriber table, indexed by a tag's physical
// slot (rename.SlotIndex). The row is stamped with the tag it serves: when
// the register file recycles the slot for a new tag, the stale list is
// truncated in place on the next subscription, so list capacity is reused
// without a pool.
type subSlot struct {
	tag  rename.Tag
	list []subRef
}

// arbEntry is one data address's row of the ARB (§2.2.2): the speculative
// store versions buffered at the address and the records of the performed
// loads that read it, which snoop the versions' performs and undos. The
// row exists while either list is non-empty.
type arbEntry struct {
	addr     uint32
	used     bool
	versions []arb.Version
	loads    []instRef
}

// arbTable is the processor's one memory-disambiguation buffer: an
// open-addressed hash table from data address to its arbEntry. Linear
// probing with backward-shift deletion keeps chains tombstone-free; an
// entry's two lists are pooled together when the entry is deleted, so the
// store and load churn performs no steady-state allocation. Only keyed
// operations exist — nothing iterates the table — so probe layout never
// reaches simulation output. A slot index is valid until the next slotFor
// or del.
type arbTable struct {
	slots []arbEntry
	n     int
	pool  []arbEntry // emptied entries' lists awaiting reuse
}

// arbTableMinSize seeds the table at first use; must be a power of two.
const arbTableMinSize = 256

// hashAddr spreads a data address over the table. Fibonacci multiplicative
// hashing; the low bits stay distinct for the sequential/strided address
// streams memory operations actually produce.
//
//tracep:noalloc
func hashAddr(a uint32) uint32 { return a * 2654435761 }

// find returns the slot index holding addr, or -1.
//
//tracep:noalloc
func (t *arbTable) find(addr uint32) int {
	if t.n == 0 {
		return -1
	}
	mask := uint32(len(t.slots) - 1)
	i := hashAddr(addr) & mask
	for t.slots[i].used {
		if t.slots[i].addr == addr {
			return int(i)
		}
		i = (i + 1) & mask
	}
	return -1
}

// slotFor returns the slot index for addr, claiming an empty slot (growing
// the table when past 3/4 load) if absent. A claimed slot's lists come from
// the recycle pool when one is available.
//
//tracep:noalloc
func (t *arbTable) slotFor(addr uint32) int {
	if (t.n+1)*4 > len(t.slots)*3 {
		//tracep:allow amortised: the table doubles, then serves a power-of-two run of inserts
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	i := hashAddr(addr) & mask
	for t.slots[i].used {
		if t.slots[i].addr == addr {
			return int(i)
		}
		i = (i + 1) & mask
	}
	if n := len(t.pool); n > 0 {
		t.slots[i] = t.pool[n-1]
		t.pool = t.pool[:n-1]
	}
	t.slots[i].addr, t.slots[i].used = addr, true
	t.n++
	return int(i)
}

// release deletes the entry at slot i if both of its lists are empty.
//
//tracep:noalloc
func (t *arbTable) release(i int) {
	if e := &t.slots[i]; len(e.versions) == 0 && len(e.loads) == 0 {
		t.del(i)
	}
}

// reset empties the table for a new run, pooling every entry's lists and
// keeping the slot array.
func (t *arbTable) reset() {
	for i := range t.slots {
		t.recycle(i)
	}
	t.n = 0
}

// recycle pools slot i's lists, if they have storage, and clears the slot.
//
//tracep:noalloc
func (t *arbTable) recycle(i int) {
	if e := &t.slots[i]; cap(e.versions) > 0 || cap(e.loads) > 0 {
		//tracep:allow pool return: the emptied lists are recycled
		t.pool = append(t.pool, arbEntry{versions: e.versions[:0], loads: e.loads[:0]})
	}
	t.slots[i] = arbEntry{}
}

// grow doubles the table (or seeds it) and reinserts every occupied slot.
func (t *arbTable) grow() {
	size := arbTableMinSize
	if len(t.slots) > 0 {
		size = len(t.slots) * 2
	}
	old := t.slots
	t.slots = make([]arbEntry, size)
	mask := uint32(size - 1)
	for _, e := range old {
		if !e.used {
			continue
		}
		i := hashAddr(e.addr) & mask
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// del frees slot i, recycling its lists and back-shifting the probe chain
// so lookups never cross tombstones.
//
//tracep:noalloc
func (t *arbTable) del(i int) {
	t.recycle(i)
	mask := len(t.slots) - 1
	j, k := i, i
	for {
		k = (k + 1) & mask
		if !t.slots[k].used {
			break
		}
		// The entry at k may slide into the hole at j iff its home slot is
		// cyclically at or before j (otherwise it would move ahead of where
		// probing starts for it).
		h := int(hashAddr(t.slots[k].addr)) & mask
		if (k-h)&mask >= (k-j)&mask {
			t.slots[j] = t.slots[k]
			t.slots[k] = arbEntry{}
			j = k
		}
	}
	t.n--
}
