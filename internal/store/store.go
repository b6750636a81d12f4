// Package store is the durable result-store layer behind the scenario
// runner's memo: a key/value interface over opaque record bytes and a
// crash-safe on-disk content-addressed implementation (durable warm hits
// across process restarts). The memo itself lives in the runner and
// holds live values; stage records are encoded only for a store. A
// Resilient wrapper adds bounded retry with backoff and automatic
// degradation — a store whose medium repeatedly fails trips into a
// permanent no-op "degraded" mode so a broken volume can never take
// serving down.
//
// Keys are arbitrary strings (the runner uses content addresses of the
// form "<stage-kind>|<hash>"); values are opaque byte slices that
// callers must treat as immutable after Put and after Get.
package store

import "errors"

// ErrNotFound is returned by Get when the key has no (intact) record.
// A corrupt on-disk record reads as ErrNotFound after quarantine — the
// caller recomputes; corruption is never served and never fatal.
var ErrNotFound = errors.New("store: not found")

// ErrDegraded is returned by every operation of a Resilient store that
// has tripped into memory-only degradation. Callers treat it as "no
// durable layer", not as a per-operation failure.
var ErrDegraded = errors.New("store: degraded (disabled after repeated failures)")

// Store is a result store: a flat key/value space of immutable record
// bytes. Implementations are safe for concurrent use.
type Store interface {
	// Get returns the record bytes for key, ErrNotFound when absent (or
	// quarantined as corrupt), or the medium's error.
	Get(key string) ([]byte, error)
	// Put durably stores val under key, overwriting any previous record.
	Put(key string, val []byte) error
	// Delete removes the record; deleting an absent key is a no-op.
	Delete(key string) error
	// Len reports the number of intact records (a Disk store counts
	// record files; quarantined records are excluded).
	Len() int
	// Close releases the store's resources. The store must not be used
	// afterwards.
	Close() error
}

// Stats counts the events only a store sees; its caller counts the
// gets, hits, misses and failed operations it makes. Both counters are
// monotonic, so deltas of snapshots attribute activity to a window.
type Stats struct {
	Quarantined uint64 `json:"quarantined,omitempty"` // corrupt records moved aside
	Retries     uint64 `json:"retries,omitempty"`     // attempts beyond an operation's first
}

// StatsProvider is implemented by stores that report Stats (Disk and
// Resilient).
type StatsProvider interface {
	Stats() Stats
}

// Moder is implemented by stores with an operational mode — Resilient
// reports "disk" until its breaker trips, then "degraded".
type Moder interface {
	Mode() string
}
