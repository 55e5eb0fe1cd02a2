package storage

// Len returns the number of cached blocks.
func (c *BlockCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
