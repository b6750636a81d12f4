package scenario

import (
	"container/list"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/tracefile"
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
// plans under memory keys. The memo sizes every value itself, by one
// walk of what the value reaches (heapBytes), so no caller estimates or
// charges bytes. Settled entries sit on an LRU list whose total size
// never exceeds the budget once a settle returns; an entry always leaves
// whole, so a value and its size cannot drift apart. Entries still
// computing are not on the list and are never evicted.
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
	return lookupKey(m, key)
}

// lookupKey is lookup over a key given as a string or as bytes: a key
// assembled in a stack buffer (see memoKeyBuf) is copied to the heap
// only for an entry the lookup installs.
func lookupKey[K ~string | ~[]byte](m *memo, key K) (e *memoEntry, owner bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e = m.entries[string(key)]; e != nil {
		if e.elem != nil {
			m.lru.MoveToFront(e.elem)
		}
		return e, false
	}
	e = &memoEntry{key: string(key), done: make(chan struct{})}
	m.entries[e.key] = e
	return e, true
}

// memoKeyBuf holds a memo key assembled on the caller's stack. Indexing
// the entries with string(b) of it does not allocate, so a lookup that
// finds its entry allocates nothing.
type memoKeyBuf [96]byte

// key assembles kind + "|" + key in buf (on the heap only when it is
// longer than buf).
func (buf *memoKeyBuf) key(kind, key string) []byte {
	return append(append(append(buf[:0], kind...), '|'), key...)
}

// get returns the value resident under kind + "|" + key, refreshing its
// recency, or nil when the key has none. Unlike lookup it never installs
// a computing entry: result entries are cache-aside, filled by put. A
// hit allocates nothing.
func (m *memo) get(kind, key string) any {
	var buf memoKeyBuf
	b := buf.key(kind, key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[string(b)]; e != nil && e.elem != nil {
		m.lru.MoveToFront(e.elem)
		return e.val
	}
	return nil
}

// put makes v resident under key unless the key already has an entry
// (a concurrent put of the same value won).
func (m *memo) put(key string, v any) {
	if e, owner := m.lookup(key); owner {
		m.settle(e, v, nil)
	}
}

// settle publishes the owner's outcome to the entry's waiters. A failure
// leaves the memo, so the next lookup retries; a value larger than the
// whole budget reaches the waiters but is not retained; any other value
// becomes resident and evicts least-recently-used entries until the
// resident bytes fit the budget.
func (m *memo) settle(e *memoEntry, v any, err error) {
	var size int64
	if err == nil {
		size = heapBytes(v)
	}
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
	e := m.lru.Back().Value.(*memoEntry)
	m.lru.Remove(e.elem)
	e.elem = nil
	delete(m.entries, e.key)
	m.bytes -= e.size
	m.evictions.Add(1)
}

// heapBytes is the size the memo charges a value: the heap bytes it
// reaches. A trace counts its encoded container alone, since its stream
// slices alias the container; any other value is walked.
func heapBytes(v any) int64 {
	if t, ok := v.(*tracefile.Trace); ok {
		return int64(t.Size())
	}
	return walkBytes(reflect.ValueOf(v))
}

// mapEntryBytes approximates a map entry's share of its table beyond
// the key and value themselves.
const mapEntryBytes = 16

// walkBytes counts the heap bytes v reaches: a pointer its pointee, a
// string its bytes, a slice cap × element size, a map mapEntryBytes per
// entry beyond its key and value, each plus what its elements reach, and
// a struct what its fields reach. A value reached twice counts twice, so
// a result entry is charged in full for the maps and slices it shares
// with stage values. Interfaces and arrays are not followed: heap behind
// them is charged nothing. The walk has no visited set, so a value with
// a cycle recurses until the goroutine's stack overflows, a fatal error
// no recover catches; memo values hold no cycles.
func walkBytes(v reflect.Value) int64 {
	var n int64
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n = int64(v.Type().Elem().Size()) + walkBytes(v.Elem())
		}
	case reflect.String:
		n = int64(v.Len())
	case reflect.Slice:
		n = int64(v.Cap()) * int64(v.Type().Elem().Size())
		if holdsHeap(v.Type().Elem()) {
			for i := range v.Len() {
				n += walkBytes(v.Index(i))
			}
		}
	case reflect.Map:
		t := v.Type()
		n = int64(v.Len()) * int64(t.Key().Size()+t.Elem().Size()+mapEntryBytes)
		for it := v.MapRange(); it.Next(); {
			n += walkBytes(it.Key()) + walkBytes(it.Value())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			n += walkBytes(v.Field(i))
		}
	}
	return n
}

// holdsHeap reports whether a value of type t can reach heap bytes: it
// is, or is a struct holding, a string, pointer, slice or map.
func holdsHeap(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.String, reflect.Pointer, reflect.Slice, reflect.Map:
		return true
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsHeap(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
