package store

import (
	"errors"
	"testing"
	"time"
)

// flaky is a scripted inner store over a plain map: each operation
// consumes the next error from its queue (nil = succeed).
type flaky struct {
	recs     map[string][]byte
	script   []error // consumed front-first by every Get/Put/Delete
	attempts int     // operations that reached the store
}

func (f *flaky) next() error {
	f.attempts++
	if len(f.script) == 0 {
		return nil
	}
	err := f.script[0]
	f.script = f.script[1:]
	return err
}

func (f *flaky) Get(key string) ([]byte, error) {
	if err := f.next(); err != nil {
		return nil, err
	}
	val, ok := f.recs[key]
	if !ok {
		return nil, ErrNotFound
	}
	return val, nil
}

func (f *flaky) Put(key string, val []byte) error {
	if err := f.next(); err != nil {
		return err
	}
	if f.recs == nil {
		f.recs = make(map[string][]byte)
	}
	f.recs[key] = val
	return nil
}

func (f *flaky) Delete(key string) error {
	if err := f.next(); err != nil {
		return err
	}
	delete(f.recs, key)
	return nil
}

func (f *flaky) Close() error { return nil }

var errIO = errors.New("transient i/o error")

// fastOpts keeps test retries quick.
func fastOpts() ResilientOptions {
	return ResilientOptions{Attempts: 3, Backoff: time.Microsecond, TripAfter: 3}
}

// TestResilientRetriesTransientErrors checks an operation that fails
// then succeeds within the attempt budget reports success after
// retrying, and leaves the breaker untouched.
func TestResilientRetriesTransientErrors(t *testing.T) {
	inner := &flaky{script: []error{errIO, errIO, nil}}
	r := NewResilient(inner, fastOpts())
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put failed despite a successful third attempt: %v", err)
	}
	if inner.attempts != 3 {
		t.Errorf("Put reached the store %d times, want 3", inner.attempts)
	}
	if got, err := r.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if r.Mode() != "disk" {
		t.Errorf("Mode = %q, want disk", r.Mode())
	}
}

// TestResilientNotFoundIsNotRetried checks ErrNotFound returns
// immediately — it is a lookup result, not a medium failure.
func TestResilientNotFoundIsNotRetried(t *testing.T) {
	inner := &flaky{}
	r := NewResilient(inner, fastOpts())
	if _, err := r.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	if inner.attempts != 1 {
		t.Errorf("a miss must not be retried, it reached the store %d times", inner.attempts)
	}
	if r.Degraded() {
		t.Error("a miss must not feed the breaker")
	}
}

// TestResilientTripsToDegraded checks TripAfter consecutive post-retry
// failures trip the breaker permanently: later operations short-circuit
// with ErrDegraded without touching the medium.
func TestResilientTripsToDegraded(t *testing.T) {
	// Every attempt of every operation fails: 3 ops × 3 attempts.
	script := make([]error, 9)
	for i := range script {
		script[i] = errIO
	}
	inner := &flaky{script: script}
	r := NewResilient(inner, fastOpts())

	for i := 0; i < 3; i++ {
		if err := r.Put("k", []byte("v")); !errors.Is(err, errIO) {
			t.Fatalf("op %d = %v, want the inner error", i, err)
		}
	}
	if !r.Degraded() || r.Mode() != "degraded" {
		t.Fatalf("breaker did not trip: degraded=%v mode=%q", r.Degraded(), r.Mode())
	}
	// The script is exhausted; a post-trip operation reaching the medium
	// would now succeed — so ErrDegraded proves the short-circuit.
	if err := r.Put("k", []byte("v")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("post-trip Put = %v, want ErrDegraded", err)
	}
	if _, err := r.Get("k"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("post-trip Get = %v, want ErrDegraded", err)
	}
}

// TestResilientSuccessResetsBreaker checks the trip counter requires
// *consecutive* failures: a success in between starts the count over.
func TestResilientSuccessResetsBreaker(t *testing.T) {
	// Two fully-failed ops (3 attempts each), one success, two more
	// fully-failed ops: never 3 consecutive, so never degraded.
	var script []error
	for i := 0; i < 6; i++ {
		script = append(script, errIO)
	}
	script = append(script, nil)
	for i := 0; i < 6; i++ {
		script = append(script, errIO)
	}
	inner := &flaky{script: script}
	r := NewResilient(inner, fastOpts())

	r.Put("k", []byte("v"))
	r.Put("k", []byte("v"))
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatalf("the successful op failed: %v", err)
	}
	r.Put("k", []byte("v"))
	r.Put("k", []byte("v"))
	if r.Degraded() {
		t.Error("breaker tripped without TripAfter consecutive failures")
	}
}
