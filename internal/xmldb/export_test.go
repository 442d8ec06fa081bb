package xmldb

// Visited is the number of records Execute scores for q: the spatial
// hits, the value index's candidates, or the whole collection.
func (db *DB) Visited(q *Query) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c := db.collections[q.Collection]
	if c == nil {
		return 0
	}
	return len(c.visit(q))
}
