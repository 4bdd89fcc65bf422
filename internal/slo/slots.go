package slo

// slotIndex maps open request ids to attribution slots. It is an
// open-addressing table with linear probing, kept at most half full, and
// deletion shifts later entries back into the hole, so no tombstones
// build up and a lookup stops at the first empty cell. The table doubles
// when the open count needs it and never shrinks: its size follows the
// peak number of requests in flight, not the run's request count.
type slotIndex struct {
	keys []int64
	// vals holds slot+1 per cell; 0 marks an empty cell.
	vals  []int32
	shift uint // 64 − log2(len(keys))
	n     int
}

// minSlotIndex is the table size of the first growth.
const minSlotIndex = 64

// home is id's preferred cell: Fibonacci hashing spreads sequential and
// strided ids alike over the table.
func (x *slotIndex) home(id int64) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> x.shift)
}

// find returns the cell holding id, or the empty cell where it would go.
func (x *slotIndex) find(id int64) (cell int, ok bool) {
	mask := len(x.keys) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		if x.vals[i] == 0 {
			return i, false
		}
		if x.keys[i] == id {
			return i, true
		}
	}
}

// get returns id's slot.
//
//e3:hotpath runs once per tracked request per boundary event
func (x *slotIndex) get(id int64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	cell, ok := x.find(id)
	if !ok {
		return 0, false
	}
	return x.vals[cell] - 1, true
}

// put maps id, which must be absent, to slot.
//
//e3:hotpath runs once per opened request
func (x *slotIndex) put(id int64, slot int32) {
	if 2*(x.n+1) > len(x.keys) {
		x.grow()
	}
	cell, _ := x.find(id)
	x.keys[cell], x.vals[cell] = id, slot+1
	x.n++
}

// remove unmaps id and returns the slot it held.
//
//e3:hotpath runs once per closed request
func (x *slotIndex) remove(id int64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	cell, ok := x.find(id)
	if !ok {
		return 0, false
	}
	slot := x.vals[cell] - 1
	// Shift back every later entry of the probe run whose home does not
	// lie cyclically in (hole, j]: it stays reachable from its home.
	mask := len(x.keys) - 1
	hole := cell
	for j := (hole + 1) & mask; x.vals[j] != 0; j = (j + 1) & mask {
		if (j-x.home(x.keys[j]))&mask >= (j-hole)&mask {
			x.keys[hole], x.vals[hole] = x.keys[j], x.vals[j]
			hole = j
		}
	}
	x.vals[hole] = 0
	x.n--
	return slot, true
}

// grow doubles the table and re-inserts every entry.
func (x *slotIndex) grow() {
	size := 2 * len(x.keys)
	if size < minSlotIndex {
		size = minSlotIndex
	}
	keys, vals := x.keys, x.vals
	x.keys = make([]int64, size) //e3:alloc the table doubles with the peak number of open requests
	x.vals = make([]int32, size) //e3:alloc the table doubles with the peak number of open requests
	x.shift = 64
	for s := size; s > 1; s >>= 1 {
		x.shift--
	}
	for i, v := range vals {
		if v != 0 {
			cell, _ := x.find(keys[i])
			x.keys[cell], x.vals[cell] = keys[i], v
		}
	}
}
