package scenario

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// memoBudget bounds the bytes of completed stage values, result entries
// and memory-only values (Runner.Memoize) a Runner keeps resident. It
// is a byte bound because one paper-scale trace is tens of megabytes
// while a run summary is a few hundred bytes; the paper-scale studies
// of both applications record about 73 MB of traces.
const memoBudget = 512 << 20

// memo is a Runner's memo: one table of entries, each holding its
// computation's single-flight state, the live value and the value's
// size. The values are stage values, successful scenarios' assembled
// sections under result keys, and memory-only values such as sweep
// plans under memory keys. Settled entries sit on an LRU list
// whose total size never exceeds the budget once a settle returns; an
// entry always leaves whole, so a value and its size cannot drift
// apart. Entries still computing are not on the list and are never
// evicted.
type memo struct {
	budget int64

	mu        sync.Mutex
	entries   map[string]*memoEntry // computing and resident entries
	lru       list.List             // resident entries, most recently used first
	bytes     int64                 // total size of the resident entries
	evictions atomic.Uint64         // entries dropped by the budget or a trim
}

// memoEntry is one memo slot: a stage's, a result entry's or a
// memory-only value's. The lookup that creates it owns the computation
// and settles the entry; every other lookup waits on done and then
// reads val and err, which never change after settling.
type memoEntry struct {
	key  string
	done chan struct{} // closed once the entry is settled
	val  any
	err  error
	size int64
	elem *list.Element // the entry's place in lru while resident
}

// MemoUsage is the memo's occupancy: resident entries and their bytes
// against the byte budget.
type MemoUsage struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget_bytes"`
}

func newMemo(budget int64) *memo {
	return &memo{budget: budget, entries: make(map[string]*memoEntry)}
}

// lookup returns key's entry, refreshing its recency when resident.
// When the key has none it installs a computing entry and reports owner:
// the caller must compute the value and settle the entry.
func (m *memo) lookup(key string) (e *memoEntry, owner bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e = m.entries[key]; e != nil {
		if e.elem != nil {
			m.lru.MoveToFront(e.elem)
		}
		return e, false
	}
	e = &memoEntry{key: key, done: make(chan struct{})}
	m.entries[key] = e
	return e, true
}

// get returns the value resident under key, refreshing its recency, or
// nil when the key has none. Unlike lookup it never installs a
// computing entry: result entries are cache-aside, filled by put.
func (m *memo) get(key string) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[key]; e != nil && e.elem != nil {
		m.lru.MoveToFront(e.elem)
		return e.val
	}
	return nil
}

// put makes v resident under key unless the key already has an entry
// (a concurrent put of the same value won).
func (m *memo) put(key string, v any, size int64) {
	if e, owner := m.lookup(key); owner {
		m.settle(e, v, size, nil)
	}
}

// settle publishes the owner's outcome to the entry's waiters. A failure
// leaves the memo, so the next lookup retries; a value larger than the
// whole budget reaches the waiters but is not retained; any other value
// becomes resident and evicts least-recently-used entries until the
// resident bytes fit the budget.
func (m *memo) settle(e *memoEntry, v any, size int64, err error) {
	m.mu.Lock()
	e.val, e.err, e.size = v, err, size
	switch {
	case err != nil:
		delete(m.entries, e.key)
	case size > m.budget:
		delete(m.entries, e.key)
		m.evictions.Add(1)
	default:
		e.elem = m.lru.PushFront(e)
		m.bytes += size
		for m.bytes > m.budget {
			m.evict()
		}
	}
	m.mu.Unlock()
	close(e.done)
}

// drop removes a resident entry whose value failed a read check, so the
// next lookup recomputes it. It is a no-op once the entry has left.
func (m *memo) drop(e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.elem != nil {
		m.remove(e)
	}
}

// trim evicts least-recently-used entries until at most n remain.
func (m *memo) trim(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.lru.Len() > max(n, 0) {
		m.evict()
	}
}

func (m *memo) usage() MemoUsage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoUsage{Entries: m.lru.Len(), Bytes: m.bytes, Budget: m.budget}
}

// evict drops the least recently used resident entry.
func (m *memo) evict() {
	m.remove(m.lru.Back().Value.(*memoEntry))
	m.evictions.Add(1)
}

func (m *memo) remove(e *memoEntry) {
	m.lru.Remove(e.elem)
	e.elem = nil
	delete(m.entries, e.key)
	m.bytes -= e.size
}
