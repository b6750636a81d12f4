package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/profile"
	"repro/internal/tracefile"
)

// goldenTrace decodes the tracefile package's golden container, a real
// trace value for tests that need one without capturing.
func goldenTrace(t testing.TB) *tracefile.Trace {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "tracefile", "testdata", "mini_golden.ctr"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkMemo verifies the memo's bookkeeping under its lock: the LRU
// list and the table agree, the resident bytes are the sum of the resident
// sizes and within the budget, no resident entry holds an error or a
// value larger than the budget, and — when quiet, with no lookup in
// flight — no entry is still computing.
func checkMemo(t *testing.T, m *memo, quiet bool) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var bytes int64
	n := 0
	for el := m.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memoEntry)
		n++
		bytes += e.size
		if m.entries[e.key] != e || e.elem != el {
			t.Errorf("resident %s is not its key's entry", e.key)
		}
		if e.err != nil || e.size > m.budget {
			t.Errorf("resident %s holds err %v, size %d (budget %d)", e.key, e.err, e.size, m.budget)
		}
	}
	if bytes != m.bytes {
		t.Errorf("the LRU list holds %d bytes, the counter says %d", bytes, m.bytes)
	}
	if m.bytes > m.budget {
		t.Errorf("resident bytes %d exceed the budget %d", m.bytes, m.budget)
	}
	if quiet && len(m.entries) != n {
		t.Errorf("%d entries still computing with no lookup in flight", len(m.entries)-n)
	}
}

// modelKey is one key of the model test's reference map. A profile
// key's reference value is one curve named after the key whose Sizes
// has ints elements, which sets the value's size; every trace key's
// reference value is the golden trace.
type modelKey struct {
	kind, key string
	ints      int
}

func (k modelKey) full() string { return k.kind + "|" + k.key }

// resident is memo.get for a full memo key, spelled kind + "|" + key as
// StageKeys spells it.
func (m *memo) resident(full string) any {
	kind, key, _ := strings.Cut(full, "|")
	return m.get(kind, key)
}

var (
	errModel      = errors.New("model: computation failed")
	errModelPanic = errors.New("model: memory-only build panicked")
)

// lookupAs runs one typed stage lookup whose computation is body.
func lookupAs[T any](ctx context.Context, rn *Runner, k modelKey, body func() (any, error)) (any, error) {
	return stage(ctx, rn, k.kind, k.key, func() (T, error) {
		v, err := body()
		t, _ := v.(T)
		return t, err
	})
}

// TestMemoModel runs seeded random interleavings of stage lookups
// against a reference map: computations that succeed, fail, panic,
// block, or are never started because the lookup's ctx is canceled;
// TrimMemo; and budget-forced eviction (one key's value is larger than
// the whole budget). Result entries take part the way Runner.complete
// uses them: a get, and on a miss a put of the reference value unless
// the outcome failed, panicked or was canceled. Memory-only entries — a
// sweep plan's kind — take part through Runner.Memoize, whose builds
// succeed, fail, panic or block like stage computations. Every
// successful lookup must return the reference value; a key's
// computation only starts when the key has no entry and never runs
// twice at once; a result get never installs an entry; errors are never
// cached; and the bookkeeping stays within the budget throughout.
func TestMemoModel(t *testing.T) {
	tr := goldenTrace(t)
	budget := int64(3 * tr.Size())
	var keys []modelKey
	for i, ints := range []int{4, 16, 40, 80, 120, 160, 240} {
		keys = append(keys, modelKey{kind: stageProfile, key: fmt.Sprintf("p%d", i), ints: ints})
	}
	keys = append(keys, modelKey{kind: stageProfile, key: "oversized", ints: int(budget / 8)})
	for i := 0; i < 3; i++ {
		keys = append(keys, modelKey{kind: stageTrace, key: fmt.Sprintf("t%d", i)})
	}
	for i, ints := range []int{4, 40, 120, 240} {
		keys = append(keys, modelKey{kind: resultKind, key: fmt.Sprintf("r%d", i), ints: ints})
	}
	keys = append(keys, modelKey{kind: resultKind, key: "oversized", ints: int(budget / 8)})
	for i, ints := range []int{8, 60, 200} {
		keys = append(keys, modelKey{kind: memoryKind, key: fmt.Sprintf("m%d", i), ints: ints})
	}
	keys = append(keys, modelKey{kind: memoryKind, key: "oversized", ints: int(budget / 8)})
	running := make(map[string]*int32, len(keys))
	for _, k := range keys {
		running[k.full()] = new(int32)
	}
	ref := func(k modelKey) any {
		switch k.kind {
		case stageTrace:
			return tr
		case resultKind:
			return &Result{Curves: []Curve{{Entity: k.key, Sizes: make([]int, k.ints)}}}
		case memoryKind:
			return []*Result{{Key: k.key, Scenario: &Scenario{Sizes: make([]int, k.ints)}}}
		}
		return []profile.Curve{{Entity: k.key, Sizes: make([]int, k.ints)}}
	}
	isRef := func(k modelKey, v any) bool {
		switch k.kind {
		case stageTrace:
			return v == tr
		case resultKind:
			r, ok := v.(*Result)
			return ok && len(r.Curves) == 1 && r.Curves[0].Entity == k.key && len(r.Curves[0].Sizes) == k.ints
		case memoryKind:
			r, ok := v.([]*Result)
			return ok && len(r) == 1 && r[0].Key == k.key && len(r[0].Scenario.Sizes) == k.ints
		}
		c, ok := v.([]profile.Curve)
		return ok && len(c) == 1 && c[0].Entity == k.key && len(c[0].Sizes) == k.ints
	}

	rn := NewRunner(1)
	rn.memo = newMemo(budget)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	// resultLookup looks a result key up the way Runner.complete does and
	// reports whether it inserted: a canceled ctx skips the lookup, and
	// on a miss only an outcome that succeeded puts the reference value.
	// A get that installed an entry would leave it computing, which the
	// quiet checkMemo after each round rejects.
	resultLookup := func(k modelKey, outcome string) (inserted bool) {
		if outcome == "canceled" {
			return false
		}
		if v := rn.memo.get(k.kind, k.key); v != nil {
			if !isRef(k, v) {
				t.Errorf("%s: result get returned %v, not the reference value", k.full(), v)
			}
			return false
		}
		if outcome == "fail" || outcome == "panic" {
			return false
		}
		rn.memo.put(k.full(), ref(k))
		return true
	}

	// memoize looks a memory-only key up through Runner.Memoize with
	// body as the build, recovering the panic a panicking build raises on
	// the building goroutine into errModelPanic.
	memoize := func(k modelKey, body func() (any, error)) (v any, err error) {
		defer func() {
			if recover() != nil {
				v, err = nil, errModelPanic
			}
		}()
		return rn.Memoize(k.key, body)
	}

	// lookup runs one lookup of k whose computation, if this lookup owns
	// it, has the given outcome, checks what it returns, and reports
	// whether it computed. Memory-only lookups take no ctx, so their
	// "canceled" outcome is a plain lookup.
	lookup := func(k modelKey, outcome string) (computed bool) {
		if k.kind == resultKind {
			return resultLookup(k, outcome)
		}
		ctx := context.Background()
		if k.kind == memoryKind && outcome == "canceled" {
			outcome = "ok"
		}
		if outcome == "canceled" {
			ctx = canceled
		}
		body := func() (any, error) {
			computed = true
			if n := atomic.AddInt32(running[k.full()], 1); n != 1 {
				t.Errorf("%s: %d computations in flight at once", k.full(), n)
			}
			defer atomic.AddInt32(running[k.full()], -1)
			rn.memo.mu.Lock()
			e := rn.memo.entries[k.full()]
			rn.memo.mu.Unlock()
			if e == nil || e.elem != nil {
				t.Errorf("%s: computing without owning the key's computing entry", k.full())
			}
			switch outcome {
			case "fail":
				return nil, errModel
			case "panic":
				panic("model: computation panicked")
			case "block":
				time.Sleep(time.Duration(50+rand.Intn(200)) * time.Microsecond)
			}
			return ref(k), nil
		}
		var (
			v   any
			err error
		)
		switch k.kind {
		case memoryKind:
			v, err = memoize(k, body)
		case stageTrace:
			v, err = lookupAs[*tracefile.Trace](ctx, rn, k, body)
		default:
			v, err = lookupAs[[]profile.Curve](ctx, rn, k, body)
		}
		var pe *StagePanicError
		switch {
		case outcome == "canceled":
			if computed || !errors.Is(err, context.Canceled) {
				t.Errorf("%s: canceled lookup computed=%v err=%v", k.full(), computed, err)
			}
		case err == nil:
			if !isRef(k, v) {
				t.Errorf("%s: lookup returned %v, not the reference value", k.full(), v)
			}
		case computed && outcome == "fail" && errors.Is(err, errModel):
		case computed && outcome == "panic" && errors.As(err, &pe):
		case !computed && (errors.Is(err, errModel) || errors.As(err, &pe)):
			// Shared the failure of a computation that was in flight.
		case k.kind == memoryKind && computed && outcome == "panic" && errors.Is(err, errModelPanic):
			// A panicking memory-only build panics on its own goroutine.
		case k.kind == memoryKind && !computed && errors.Is(err, errStageAborted):
			// A panicking memory-only build aborts its waiters.
		default:
			t.Errorf("%s: outcome %s (computed %v) returned %v", k.full(), outcome, computed, err)
		}
		return computed
	}

	outcomes := []string{"ok", "ok", "ok", "ok", "ok", "ok", "fail", "panic", "block", "block", "canceled"}
	for round := uint64(0); round < 3; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 250; op++ {
					switch r := rng.Intn(20); {
					case r == 0:
						rn.TrimMemo(rng.Intn(4))
					case r == 1:
						checkMemo(t, rn.memo, false)
					default:
						lookup(keys[rng.Intn(len(keys))], outcomes[rng.Intn(len(outcomes))])
					}
				}
			}(int64(round*10) + int64(g))
		}
		wg.Wait()

		checkMemo(t, rn.memo, true)
		// Errors are never cached: with every computation succeeding,
		// each key serves its reference value, and a result entry is
		// resident right after its put unless it exceeds the budget.
		for _, k := range keys {
			lookup(k, "ok")
			if k.kind != resultKind && k.kind != memoryKind {
				continue
			}
			if v := rn.memo.get(k.kind, k.key); (k.key == "oversized") != (v == nil) || v != nil && !isRef(k, v) {
				t.Errorf("%s: after a put the memo holds %v", k.full(), v)
			}
		}
		checkMemo(t, rn.memo, true)
	}
	if rn.Stats().MemoEvictions == 0 {
		t.Error("a budget of three traces over this key space must evict")
	}
	rn.TrimMemo(1)
	if u := rn.MemoUsage(); u.Entries > 1 || u.Budget != budget {
		t.Errorf("TrimMemo(1) left %+v", u)
	}
	checkMemo(t, rn.memo, true)
}

// TestMemoEvictsLeastRecentlyUsed checks the eviction order: a hit
// refreshes an entry, so both the budget and a trim evict the least
// recently used entry first, and a negative trim empties the memo.
// Each value is a 10-byte string, so the 30-byte budget holds three.
func TestMemoEvictsLeastRecentlyUsed(t *testing.T) {
	m := newMemo(30)
	put := func(key string) {
		e, owner := m.lookup(key)
		if !owner {
			t.Fatalf("%s: first lookup must own the computation", key)
		}
		m.settle(e, strings.Repeat(key, 10), nil)
	}
	resident := func() (out []string) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for el := m.lru.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*memoEntry).key)
		}
		return out
	}
	put("a")
	put("b")
	put("c")
	m.lookup("a") // b is now the least recently used
	put("d")      // over the budget: evicts b
	if got := strings.Join(resident(), ","); got != "d,a,c" {
		t.Errorf("after the budget eviction, most recent first: %s, want d,a,c", got)
	}
	m.lookup("c")
	m.trim(1)
	if got := strings.Join(resident(), ","); got != "c" {
		t.Errorf("after trim(1): %s, want c", got)
	}
	m.trim(-1)
	if u := m.usage(); u.Entries != 0 || u.Bytes != 0 || m.evictions.Load() != 4 {
		t.Errorf("after trim(-1): %+v, %d evictions, want empty after 4", u, m.evictions.Load())
	}
}

// TestMemoOversizedValueReachesWaitersNotRetained pins the budget's edge:
// a value larger than the whole budget is handed to every lookup that
// waited on its computation, but it does not stay resident and it does
// not push out the entries that fit. The values are strings, a 40-byte
// one that fits the 100-byte budget and a 101-byte one that does not.
func TestMemoOversizedValueReachesWaitersNotRetained(t *testing.T) {
	m := newMemo(100)
	small, owner := m.lookup("small")
	if !owner {
		t.Fatal("first lookup must own the computation")
	}
	m.settle(small, strings.Repeat("s", 40), nil)

	big, owner := m.lookup("big")
	if !owner {
		t.Fatal("first lookup of big must own the computation")
	}
	var waiters []*memoEntry
	for i := 0; i < 3; i++ {
		e, owner := m.lookup("big")
		if owner || e != big {
			t.Fatal("a lookup during the computation must wait on it")
		}
		waiters = append(waiters, e)
	}
	bigVal := strings.Repeat("b", 101)
	m.settle(big, bigVal, nil)
	for _, e := range waiters {
		<-e.done
		if e.val != bigVal || e.err != nil {
			t.Errorf("waiter got %v, %v", e.val, e.err)
		}
	}
	if u := m.usage(); u.Entries != 1 || u.Bytes != 40 || m.evictions.Load() != 1 {
		t.Errorf("after the oversized value: %+v, %d evictions", u, m.evictions.Load())
	}
	if _, owner := m.lookup("big"); !owner {
		t.Error("the oversized value must not be retained")
	}
	if e, owner := m.lookup("small"); owner || e != small {
		t.Error("the oversized value must not evict what fits")
	}
}

// TestMemoHitAllocs pins a memo hit — the path every warm request takes
// per stage — at zero allocations, for a trace and for a JSON kind, and
// likewise a result-entry lookup, which every warm scenario takes, and
// a memory-only lookup (Runner.Memoize), which every warm sweep takes
// for its plan.
func TestMemoHitAllocs(t *testing.T) {
	rn := NewRunner(1)
	values := map[string]any{
		stageTrace:   goldenTrace(t),
		stageProfile: []profile.Curve{{Entity: "e", Sizes: []int{1}, Misses: []float64{2}}},
	}
	for kind, v := range values {
		key := kind + "|k"
		f := func() (any, error) { return v, nil }
		if _, err := rn.lookup(kind, key, f); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { rn.lookup(kind, key, f) }); n != 0 {
			t.Errorf("%s memo hit: %v allocs, want 0", kind, n)
		}
	}
	prepared, err := rn.Prepare(Scenario{Workload: "jpeg1-only", Scale: "small"})
	if err != nil {
		t.Fatal(err)
	}
	rn.memo.put(resultKind+"|"+prepared.Key, &Result{})
	if n := testing.AllocsPerRun(200, func() { rn.memo.get(resultKind, prepared.Key) }); n != 0 {
		t.Errorf("result entry hit: %v allocs, want 0", n)
	}
	const planKey = "sweep.plan|0123456789abcdef0123456789abcdef" // a plan key's shape
	plan := func() (any, error) { return prepared, nil }
	if _, err := rn.Memoize(planKey, plan); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { rn.Memoize(planKey, plan) }); n != 0 {
		t.Errorf("memory-only hit: %v allocs, want 0", n)
	}
}

// TestMemoHeapBytes pins the walk that sizes memo values on small
// literals: a string counts its bytes, a slice its capacity, a map
// mapEntryBytes per entry beyond its key and value plus the key's bytes,
// a pointer its pointee, and a trace its container alone. A map reached
// through an unexported field, as a sweep plan's specs reach their
// per-CPU overrides, is walked like any other.
func TestMemoHeapBytes(t *testing.T) {
	type hidden struct{ perCPU map[string]CacheSpec }
	two := 2
	tr := goldenTrace(t)
	for _, c := range []struct {
		name string
		v    any
		want int64
	}{
		{"string", "hello", 5},
		{"slice cap beyond len", make([]float64, 2, 5), 5 * 8},
		{"one-entry map", map[string]int{"ab": 1}, 16 + 8 + mapEntryBytes + 2},
		{"nil pointer", (*Result)(nil), 0},
		{"pointer to a struct", &profile.Curve{Entity: "abc", Sizes: []int{1, 2}}, int64(unsafe.Sizeof(profile.Curve{})) + 3 + 2*8},
		{"unexported map field", &hidden{map[string]CacheSpec{"1": {Ways: &two}}}, 8 + (16 + int64(unsafe.Sizeof(CacheSpec{})) + mapEntryBytes) + 1 + 8},
		{"golden trace", tr, int64(tr.Size())},
	} {
		if got := heapBytes(c.v); got != c.want {
			t.Errorf("%s: %d bytes, want %d", c.name, got, c.want)
		}
	}
}

// TestMemoSizeTracksDocuments checks each kind's size estimate over
// small-scale versions of the built-in application studies: a trace is
// charged exactly its container size, and every other value within
// 2.5× of a yardstick. For the profile and run kinds that is the
// encoded document: their live values are larger than their JSON (a
// curve keeps 8 bytes per size and miss count where its document spends
// two to five digits). An optimize value is two small maps, the
// allocation and the expected misses, and a map entry costs about 40
// bytes of slots beyond its key, several times the entry's JSON; so its
// yardstick is the heap itself, the live bytes one decoded copy of its
// document holds. A result entry is never encoded; its estimate is
// checked against the JSON of its sections, which it counts in full
// although it shares their maps with stage values. So is a memory-only
// entry of prepared scenarios, whose normalized specs spend a pointer
// and a scalar on each field their JSON spells out. A shared
// repetition, the memory-only value a spec's shared run and profile
// both read, is a run value and a profile's curves; its yardstick is
// the two documents those encode to. A JSON stage value
// decoded from its document, what a disk hit makes resident, must be
// charged no more than the fresh value it was encoded from; a profile of
// five candidate sizes checks that for curves whose slices
// encoding/json would grow past their length.
func TestMemoSizeTracksDocuments(t *testing.T) {
	const maxRatio = 2.5
	rn := NewRunner(2)
	var prepared []*Result
	for _, w := range []string{"2jpeg+canny", "mpeg2"} {
		res, err := rn.Run(Scenario{Workload: w, Scale: "small", Runs: 1, Partition: PartitionOptimized})
		if err != nil {
			t.Fatal(err)
		}
		p := *res
		p.setSections(&Result{})
		prepared = append(prepared, &p)
	}
	if _, err := rn.Run(Scenario{Workload: "mpeg2", Scale: "small", Runs: 1, Partition: PartitionProfile, Sizes: []int{1, 2, 4, 8, 16}}); err != nil {
		t.Fatal(err)
	}
	// A memory-only entry of prepared scenarios, what a sweep plan holds
	// beside its coordinates.
	_, err := rn.Memoize("prepared", func() (any, error) { return prepared, nil })
	if err != nil {
		t.Fatal(err)
	}
	var resident []*memoEntry
	rn.memo.mu.Lock()
	for el := rn.memo.lru.Front(); el != nil; el = el.Next() {
		resident = append(resident, el.Value.(*memoEntry))
	}
	rn.memo.mu.Unlock()
	kinds := map[string]int{}
	reps := 0
	for _, e := range resident {
		kind, _, _ := strings.Cut(e.key, "|")
		kinds[kind]++
		var (
			doc []byte
			err error
		)
		switch rep, _ := e.val.(*sharedRep); {
		case rep != nil:
			reps++
			doc, err = encodeStage(stageRun, rep.run)
			if err == nil {
				var curves []byte
				curves, err = encodeStage(stageProfile, rep.curves)
				doc = append(doc, curves...)
			}
		case kind == resultKind || kind == memoryKind:
			doc, err = json.Marshal(e.val)
		default:
			doc, err = encodeStage(kind, e.val)
		}
		if err != nil {
			t.Fatal(err)
		}
		if tr, ok := e.val.(*tracefile.Trace); ok && e.size != int64(tr.Size()) {
			t.Errorf("%s: size %d, trace container %d bytes", e.key, e.size, tr.Size())
		}
		if kind != resultKind && kind != memoryKind && kind != stageTrace {
			v, err := decodeStage(kind, doc)
			if err != nil {
				t.Fatal(err)
			}
			if n := heapBytes(v); n > e.size {
				t.Errorf("%s: decoded from its document, charged %d bytes, fresh %d", e.key, n, e.size)
			}
		}
		yardstick, what := int64(len(doc)), "document"
		if kind == stageOptimize {
			yardstick, what = decodedHeap(t, kind, doc), "live heap of a decoded copy"
		}
		if r := float64(e.size) / float64(yardstick); r < 1/maxRatio || r > maxRatio {
			t.Errorf("%s: size %d vs %d-byte %s (ratio %.2f)", e.key, e.size, yardstick, what, r)
		}
	}
	if len(kinds) != 6 {
		t.Errorf("want every stage kind, the result entries and a memory-only entry resident, got %v", kinds)
	}
	if reps != 3 {
		t.Errorf("want the three specs' shared repetitions resident, got %d", reps)
	}
}

// decodedHeap returns the live heap one decoded copy of a stage
// document holds, averaged over copies kept alive together so that the
// collector's granularity washes out.
func decodedHeap(t *testing.T, kind string, doc []byte) int64 {
	t.Helper()
	copies := make([]any, 256)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range copies {
		v, err := decodeStage(kind, doc)
		if err != nil {
			t.Fatal(err)
		}
		copies[i] = v
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(copies)
	return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(copies))
}

// BenchmarkHeapBytes times the walk that sizes a value entering the
// memo, over one small-scale 2jpeg+canny value of each kind the memo
// holds: the profile, optimize and partitioned-run stage values, the
// result entry, a prepared scenario (what a sweep plan holds per point)
// and the trace.
func BenchmarkHeapBytes(b *testing.B) {
	rn := NewRunner(2)
	spec := Scenario{Workload: "2jpeg+canny", Scale: "small", Runs: 1, Partition: PartitionOptimized}
	prepared, err := rn.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	prepared.setSections(&Result{})
	keys, err := spec.StageKeys()
	if err != nil {
		b.Fatal(err)
	}
	values := []struct {
		kind string
		v    any
	}{
		{"profile", rn.memo.resident(keys["profile"])},
		{"optimize", rn.memo.resident(keys["optimize"])},
		{"run", rn.memo.resident(keys["run.partitioned"])},
		{"result", rn.memo.get(resultKind, prepared.Key)},
		{"prepared", prepared},
		{"trace", rn.memo.resident(keys["trace"])},
	}
	for _, c := range values {
		if c.v == nil {
			b.Fatalf("no resident %s value", c.kind)
		}
		b.Run(c.kind, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				heapBytes(c.v)
			}
		})
	}
}
