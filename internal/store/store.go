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
// A store counts nothing: a corrupt record is moved aside, and the Get
// that finds it returns ErrQuarantined, a kind of ErrNotFound.
//
// Keys are arbitrary strings (the runner uses content addresses of the
// form "<stage-kind>|<hash>"); values are opaque byte slices that
// callers must treat as immutable after Put and after Get.
package store

import (
	"errors"
	"fmt"
)

// ErrNotFound is returned by Get when the key has no (intact) record.
var ErrNotFound = errors.New("store: not found")

// ErrQuarantined is returned by the Get that finds the key's record
// corrupt and moves it aside. It is an ErrNotFound (errors.Is reports
// true): the caller recomputes, and corruption is never served and
// never fatal.
var ErrQuarantined = fmt.Errorf("%w: corrupt record quarantined", ErrNotFound)

// ErrDegraded is returned by every operation of a Resilient store that
// has tripped into memory-only degradation. Callers treat it as "no
// durable layer", not as a per-operation failure.
var ErrDegraded = errors.New("store: degraded (disabled after repeated failures)")

// Store is a result store: a flat key/value space of immutable record
// bytes. Implementations are safe for concurrent use.
type Store interface {
	// Get returns the record bytes for key, ErrNotFound when absent,
	// ErrQuarantined when the record was corrupt and has been moved
	// aside, or the medium's error.
	Get(key string) ([]byte, error)
	// Put durably stores val under key, overwriting any previous record.
	Put(key string, val []byte) error
	// Delete removes the record; deleting an absent key is a no-op.
	Delete(key string) error
	// Close releases the store's resources. The store must not be used
	// afterwards.
	Close() error
}
