package cache

import "fmt"

// CheckConsistency verifies the cache's structural self-consistency:
// every valid line is aligned and stored in its home set, no set holds
// the same line twice, and the per-set replacement metadata is
// well-formed (replacement.Policy.CheckSet). The hierarchy's lockstep
// test (internal/hierarchy/oracle_test.go) calls it for every cache as
// a structural probe; it is O(lines x assoc).
func (c *Cache) CheckConsistency() error {
	for s := 0; s < c.numSets; s++ {
		base := s * c.assoc
		for w := 0; w < c.assoc; w++ {
			if c.tags[base+w] == invalidTag {
				// An empty way's flags and presence are not checked:
				// nothing reads them before FillWay overwrites both.
				continue
			}
			addr := c.tags[base+w]
			if addr != c.LineAddr(addr) {
				return fmt.Errorf("cache %s: set %d way %d holds unaligned address %#x",
					c.cfg.Name, s, w, addr)
			}
			if home := c.SetIndex(addr); home != s {
				return fmt.Errorf("cache %s: line %#x stored in set %d but maps to set %d",
					c.cfg.Name, addr, s, home)
			}
			for v := 0; v < w; v++ {
				if c.tags[base+v] == addr {
					return fmt.Errorf("cache %s: line %#x duplicated in set %d (ways %d and %d)",
						c.cfg.Name, addr, s, v, w)
				}
			}
		}
		if err := c.policy.CheckSet(s); err != nil {
			return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
		}
	}
	return nil
}
