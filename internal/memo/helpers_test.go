package memo

// Len reports the number of completed entries held.
func (m *Memo[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		m.shards[i].mu.Lock()
		n += m.shards[i].done.Len()
		m.shards[i].mu.Unlock()
	}
	return n
}
