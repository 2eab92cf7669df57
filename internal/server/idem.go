package server

import "container/list"

// lruMap is a bounded string-keyed LRU used for the two exactly-once side
// tables: Idempotency-Key → session id (so a retried POST /sessions never
// creates a duplicate session) and session id → final response (so a retried
// final answer can be replayed after the session left the live table). Both
// tables are best-effort by design — the bound means entries eventually fall
// out — but within the window a retry is exactly-once, and the bound keeps a
// hostile client from growing server memory without limit.
//
// lruMap is not self-locking: both tables are only touched under Server.mu.
// The idempotency lookup and the session-create must be one critical section
// or two racing creates could both miss; a finishing session must leave the
// live table and enter the completed cache in one, or a retry landing in
// between finds it in neither.
type lruMap struct {
	cap int
	m   map[string]*list.Element
	l   *list.List // front = most recently used
}

type lruEntry struct {
	key string
	val any
}

func newLRUMap(capacity int) *lruMap {
	return &lruMap{cap: capacity, m: make(map[string]*list.Element), l: list.New()}
}

// get returns the value for key and marks it most recently used.
func (c *lruMap) get(key string) (any, bool) {
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes key, evicting the least recently used entry when
// the table is over capacity.
func (c *lruMap) put(key string, val any) {
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).val = val
		c.l.MoveToFront(el)
		return
	}
	c.m[key] = c.l.PushFront(&lruEntry{key: key, val: val})
	for c.l.Len() > c.cap {
		oldest := c.l.Back()
		c.l.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
	}
}

// len reports how many entries the table holds.
func (c *lruMap) len() int { return c.l.Len() }
