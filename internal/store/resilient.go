package store

import (
	"errors"
	"sync/atomic"
	"time"
)

// ResilientOptions tunes the retry and degradation behavior of a
// Resilient store. The zero value means all defaults.
type ResilientOptions struct {
	// Attempts is how many times an operation is tried in total before
	// it counts as failed; 0 means 3.
	Attempts int
	// Backoff is the sleep before the first retry, doubling per retry;
	// 0 means 2ms. (Set it low in tests.)
	Backoff time.Duration
	// TripAfter is how many *consecutive* failed operations (each
	// post-retry) trip the store into permanent degradation; 0 means 3.
	TripAfter int
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 2 * time.Millisecond
	}
	if o.TripAfter <= 0 {
		o.TripAfter = 3
	}
	return o
}

// Resilient hardens a Store for serving: transient I/O errors are
// retried with exponential backoff, and a medium that keeps failing —
// TripAfter consecutive operations failing even after retries — trips
// the store into permanent degradation, where every operation returns
// ErrDegraded without touching the medium. Callers treat ErrDegraded
// as "no durable layer": serving continues memory-only, and a broken
// volume can never take the process down or stall it with endless
// retry sleeps.
//
// ErrNotFound (ErrQuarantined included) is a result, not a failure: it
// is returned immediately, never retried, and never counts toward the
// breaker.
type Resilient struct {
	inner Store
	opts  ResilientOptions

	consecutive int64 // consecutive failed ops; reset by any success
	degraded    int32 // set once, never cleared
}

// NewResilient wraps inner with retry and degradation.
func NewResilient(inner Store, opts ResilientOptions) *Resilient {
	return &Resilient{inner: inner, opts: opts.withDefaults()}
}

// Mode reports "disk" while healthy and "degraded" after the breaker
// trips.
func (r *Resilient) Mode() string {
	if atomic.LoadInt32(&r.degraded) == 1 {
		return "degraded"
	}
	return "disk"
}

// Degraded reports whether the breaker has tripped.
func (r *Resilient) Degraded() bool { return atomic.LoadInt32(&r.degraded) == 1 }

// do runs op with retry/backoff and feeds the breaker.
func (r *Resilient) do(op func() error) error {
	if r.Degraded() {
		return ErrDegraded
	}
	var err error
	for attempt := 0; attempt < r.opts.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(r.opts.Backoff << (attempt - 1))
		}
		err = op()
		if err == nil || errors.Is(err, ErrNotFound) {
			atomic.StoreInt64(&r.consecutive, 0)
			return err
		}
	}
	if atomic.AddInt64(&r.consecutive, 1) >= int64(r.opts.TripAfter) {
		atomic.StoreInt32(&r.degraded, 1)
	}
	return err
}

// Get implements Store.
func (r *Resilient) Get(key string) ([]byte, error) {
	var val []byte
	err := r.do(func() error {
		var e error
		val, e = r.inner.Get(key)
		return e
	})
	return val, err
}

// Put implements Store.
func (r *Resilient) Put(key string, val []byte) error {
	return r.do(func() error { return r.inner.Put(key, val) })
}

// Delete implements Store.
func (r *Resilient) Delete(key string) error {
	return r.do(func() error { return r.inner.Delete(key) })
}

// Close implements Store (the medium is closed even when degraded).
func (r *Resilient) Close() error { return r.inner.Close() }
