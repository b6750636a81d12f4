// Package faults provides deterministic, test-only fault injection for
// the execution pipeline. Production code is instrumented with named
// injection points (Point calls) at stage boundaries and worker
// dispatch; with no active Plan a point is a single atomic load and a
// nil return, so the instrumentation is free in normal operation.
//
// A Plan is seeded and fully deterministic: every site keeps a hit
// counter, and a rule fires a fault (panic, error or delay) at exact,
// pre-chosen hit ordinals. The seed parameterizes ordinal selection
// (Pick) and is embedded in every injected panic/error value, so a
// failing fault-suite run names the plan that produced it. Tests
// activate a plan with Activate and must restore before finishing;
// exactly one plan can be active at a time.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Injection-site names. Stage sites are SiteStage + the stage kind
// ("stage.profile", "stage.optimize", "stage.run"); SiteWorker is hit
// once per task dispatched on the parallel worker pool; SiteStoreGet
// and SiteStorePut are hit once per durable-store read and write (the
// disk store honors Error and Delay on both, and Truncate on put — a
// torn write that frames a deliberately short record through the same
// atomic path, simulating a crash between rename and data flush).
// SiteTraceRead is hit once per trace-stage record decode, so corrupt
// recorded traces are provable to read as misses and recapture.
// SiteExploreStep is hit once per exploration round, after the round's
// points are evaluated but before its checkpoint is written — an
// injected error there models a crash at the worst moment (work done,
// progress not yet durable), which the resume path must absorb without
// re-executing any completed stage.
const (
	SiteStage       = "stage."
	SiteWorker      = "parallel.worker"
	SiteStoreGet    = "store.get"
	SiteStorePut    = "store.put"
	SiteTraceRead   = "trace.read"
	SiteExploreStep = "explore.step"
)

// Kind selects what an injection rule does when it fires.
type Kind int

const (
	// None is the zero Kind; it never fires.
	None Kind = iota
	// Panic panics with a PanicValue at the injection point.
	Panic
	// Error returns an *InjectedError from the injection point.
	Error
	// Delay sleeps for the rule's duration, then proceeds normally.
	Delay
	// Truncate returns an *InjectedError with Kind Truncate; the site
	// interprets it (the disk store's put path writes a torn record and
	// reports success). Sites that cannot interpret it treat it as Error.
	Truncate
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Error:
		return "error"
	case Delay:
		return "delay"
	case Truncate:
		return "truncate"
	}
	return "none"
}

// PanicValue is the value injected panics carry, so containment layers
// and tests can recognize (and pretty-print) an injected panic.
type PanicValue struct {
	Site    string
	Ordinal uint64
	Seed    uint64
}

// String implements fmt.Stringer; recovered values print through %v.
func (v PanicValue) String() string {
	return fmt.Sprintf("faults: injected panic at %s[#%d] (seed %d)", v.Site, v.Ordinal, v.Seed)
}

// InjectedError is the error returned by Error- and Truncate-kind
// rules. Kind distinguishes them (the zero Kind reads as a plain
// error, so existing constructions are unchanged).
type InjectedError struct {
	Site    string
	Ordinal uint64
	Kind    Kind
}

// Error implements error.
func (e *InjectedError) Error() string {
	if e.Kind == Truncate {
		return fmt.Sprintf("faults: injected torn write at %s[#%d]", e.Site, e.Ordinal)
	}
	return fmt.Sprintf("faults: injected error at %s[#%d]", e.Site, e.Ordinal)
}

// IsTruncate reports whether err is an injected Truncate fault, which
// the disk store's put path turns into a torn-but-"successful" write.
func IsTruncate(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie) && ie.Kind == Truncate
}

// action is one armed fault at one ordinal of a site.
type action struct {
	kind  Kind
	delay time.Duration
}

// site tracks one injection point's hit counter and armed actions.
// always, when non-nil, fires on every hit without an exact-ordinal
// action — the "broken volume" rules of the degradation tests.
type site struct {
	hits    uint64
	actions map[uint64]action
	always  *action
	fired   map[Kind]uint64
}

// Plan is a deterministic fault schedule: per-site rules firing at
// exact hit ordinals. Safe for concurrent use once activated.
type Plan struct {
	// Seed parameterizes ordinal selection and labels injected values.
	Seed uint64

	mu    sync.Mutex
	sites map[string]*site
}

// New returns an empty plan with the given seed.
func New(seed uint64) *Plan {
	return &Plan{Seed: seed, sites: map[string]*site{}}
}

func (p *Plan) site(name string) *site {
	s := p.sites[name]
	if s == nil {
		s = &site{actions: map[uint64]action{}, fired: map[Kind]uint64{}}
		p.sites[name] = s
	}
	return s
}

func (p *Plan) arm(name string, a action, ordinals []uint64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.site(name)
	for _, o := range ordinals {
		s.actions[o] = a
	}
	return p
}

// PanicAt arms a panic at the given hit ordinals of a site.
func (p *Plan) PanicAt(siteName string, ordinals ...uint64) *Plan {
	return p.arm(siteName, action{kind: Panic}, ordinals)
}

// ErrorAt arms an error return at the given hit ordinals of a site.
func (p *Plan) ErrorAt(siteName string, ordinals ...uint64) *Plan {
	return p.arm(siteName, action{kind: Error}, ordinals)
}

// DelayAt arms a sleep of d at the given hit ordinals of a site.
func (p *Plan) DelayAt(siteName string, d time.Duration, ordinals ...uint64) *Plan {
	return p.arm(siteName, action{kind: Delay, delay: d}, ordinals)
}

// TruncateAt arms a torn write at the given hit ordinals of a site
// (meaningful on store.put, where the disk store frames a deliberately
// truncated record and reports success).
func (p *Plan) TruncateAt(siteName string, ordinals ...uint64) *Plan {
	return p.arm(siteName, action{kind: Truncate}, ordinals)
}

// ErrorAlways arms an error return on every hit of a site — the
// always-failing-disk rule of the degradation tests. Exact-ordinal
// rules, if any, take precedence at their ordinals.
func (p *Plan) ErrorAlways(siteName string) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	a := action{kind: Error}
	p.site(siteName).always = &a
	return p
}

// Pick deterministically selects k distinct ordinals from [0, n),
// sorted ascending, from the plan's seed — the "random but
// reproducible" placement the fault suite uses.
func (p *Plan) Pick(n, k int) []uint64 {
	if k > n {
		k = n
	}
	r := rand.New(rand.NewSource(int64(p.Seed)))
	perm := r.Perm(n)[:k]
	out := make([]uint64, k)
	for i, v := range perm {
		out[i] = uint64(v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Hits returns how many times a site has been hit under this plan.
func (p *Plan) Hits(siteName string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.sites[siteName]; s != nil {
		return s.hits
	}
	return 0
}

// Fired returns how many faults of the given kind a site has injected.
func (p *Plan) Fired(siteName string, k Kind) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.sites[siteName]; s != nil {
		return s.fired[k]
	}
	return 0
}

// hit advances the site's counter and fires any armed action.
func (p *Plan) hit(name string) error {
	p.mu.Lock()
	s := p.site(name)
	ord := s.hits
	s.hits++
	a, armed := s.actions[ord]
	if !armed && s.always != nil {
		a, armed = *s.always, true
	}
	if armed {
		s.fired[a.kind]++
	}
	p.mu.Unlock()
	if !armed {
		return nil
	}
	switch a.kind {
	case Panic:
		panic(PanicValue{Site: name, Ordinal: ord, Seed: p.Seed})
	case Error:
		return &InjectedError{Site: name, Ordinal: ord}
	case Truncate:
		return &InjectedError{Site: name, Ordinal: ord, Kind: Truncate}
	case Delay:
		time.Sleep(a.delay)
	}
	return nil
}

// active is the installed plan; nil in production.
var active atomic.Pointer[Plan]

// Activate installs the plan globally and returns the restore function
// that deactivates it. Exactly one plan may be active; activating over
// another is a test-harness bug and panics.
func Activate(p *Plan) (restore func()) {
	if !active.CompareAndSwap(nil, p) {
		panic("faults: a plan is already active")
	}
	return func() { active.CompareAndSwap(p, nil) }
}

// Point is the injection hook production code calls at a named site.
// With no active plan it returns nil at the cost of one atomic load;
// under a plan it may panic, return an *InjectedError, or sleep,
// exactly as the plan's rules for the site dictate.
func Point(siteName string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(siteName)
}
