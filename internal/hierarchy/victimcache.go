package hierarchy

// victimCache is a small fully-associative LRU buffer of lines recently
// evicted from the LLC, used for the paper's §VI related-work
// comparison against Fletcher et al.'s victim-cache remedy (the paper
// uses 32 entries and finds it recovers only ~0.8% vs 4.5–6.5% for
// ECI/QBS). Entries are ordered MRU-first.
type victimCache struct {
	capacity int
	addrs    []uint64
	dirty    []bool
}

func newVictimCache(capacity int) *victimCache {
	return &victimCache{
		capacity: capacity,
		addrs:    make([]uint64, 0, capacity),
		dirty:    make([]bool, 0, capacity),
	}
}

// insert adds a line, evicting the LRU entry when full. It returns the
// evicted entry so dirty data can be written back.
func (v *victimCache) insert(addr uint64, dirty bool) (evAddr uint64, evDirty, evicted bool) {
	// Replacing an existing copy keeps the newest dirty state.
	for i, a := range v.addrs {
		if a == addr {
			v.promote(i)
			v.dirty[0] = v.dirty[0] || dirty
			return 0, false, false
		}
	}
	if len(v.addrs) == v.capacity {
		last := len(v.addrs) - 1
		evAddr, evDirty, evicted = v.addrs[last], v.dirty[last], true
		v.addrs, v.dirty = v.addrs[:last], v.dirty[:last]
	}
	v.addrs = append(v.addrs, 0)
	v.dirty = append(v.dirty, false)
	copy(v.addrs[1:], v.addrs)
	copy(v.dirty[1:], v.dirty)
	v.addrs[0], v.dirty[0] = addr, dirty
	return evAddr, evDirty, evicted
}

// remove extracts addr's entry, reporting its dirty bit and presence.
func (v *victimCache) remove(addr uint64) (dirty, ok bool) {
	for i, a := range v.addrs {
		if a == addr {
			dirty = v.dirty[i]
			v.addrs = append(v.addrs[:i], v.addrs[i+1:]...)
			v.dirty = append(v.dirty[:i], v.dirty[i+1:]...)
			return dirty, true
		}
	}
	return false, false
}

// promote moves entry i to the MRU position.
func (v *victimCache) promote(i int) {
	a, d := v.addrs[i], v.dirty[i]
	copy(v.addrs[1:i+1], v.addrs[:i])
	copy(v.dirty[1:i+1], v.dirty[:i])
	v.addrs[0], v.dirty[0] = a, d
}

func (v *victimCache) len() int { return len(v.addrs) }

// reset empties the victim cache in place, keeping the backing arrays
// so a reused hierarchy does not reallocate them.
func (v *victimCache) reset() {
	v.addrs = v.addrs[:0]
	v.dirty = v.dirty[:0]
}
