package buffer

import "dbvirt/internal/storage"

// Resident reports whether a page is currently in the pool.
func (p *Pool) Resident(id storage.PageID) bool { return p.lookup(id) >= 0 }

// PinnedCount returns the number of frames with at least one pin.
func (p *Pool) PinnedCount() int {
	var n int
	for i := range p.frames {
		if p.frames[i].occupied && p.frames[i].pins > 0 {
			n++
		}
	}
	return n
}
