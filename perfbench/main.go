// Command perfbench is the layered benchmark of the compmem
// reproduction. It runs one workload — study-paper, grid-small or
// serve-batch — whose inputs it generates from --seed, drives the
// program only through its Go API, checks the simulated outputs and
// prints the metrics BENCHMARK.json declares: with --trace 0 the
// end-to-end metrics of untraced passes repeated for --seconds, with
// --trace 1 the per-layer metrics of a separate traced pass, whose
// spans it writes under .bench_build/spans/. The last line of standard
// output is the JSON result; a failed check makes the exit code 1.
//
// Run it through run.py from the repository root, which builds it:
//
//	python3 perfbench/run.py --workload grid-small --seed 3 --seconds 30 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// defaultSeed is the seed whose output digests reference.json pins;
	// seed 0 is also the paper's canonical workload.
	defaultSeed = 0
	// workers is the runners' worker-pool bound: the two CPUs the
	// benchmark machine has.
	workers = 2
	// deadline bounds a whole run; past it the run fails rather than
	// overrunning the 180 s a run may take.
	deadline = 170 * time.Second
	outDir   = ".bench_build"
)

// workload is one benchmark workload.
type workload struct {
	name string
	// minPasses is the least number of untraced passes a run makes,
	// whatever --seconds says, so each median has at least this many
	// samples.
	minPasses int
	pass      func(b *bench) (*passResult, error)
	traced    func(b *bench) (*tracedResult, error)
}

var workloadList = []*workload{
	{name: "study-paper", minPasses: 3, pass: studyPass, traced: studyTraced},
	{name: "grid-small", minPasses: 5, pass: gridPass, traced: gridTraced},
	{name: "serve-batch", minPasses: 5, pass: servePass, traced: serveTraced},
}

// bench is the state of one run.
type bench struct {
	seed   uint64
	window time.Duration
	tmp    string
	ck     checks
	named  *samples // the human-readable report's series
	notes  []string

	modelNoted bool
	// pass counts the untraced passes started so far.
	pass int
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// checks counts operations and the ones that failed, with the first
// failure messages.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

// op counts one operation; a non-nil err marks it failed. It returns
// whether the operation succeeded.
func (c *checks) op(what string, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return true
	}
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, what+": "+err.Error())
	}
	return false
}

// passResult is one untraced pass of a workload.
type passResult struct {
	setup  []time.Duration // each set-up before the first timed operation
	cold   time.Duration   // the cold phase
	warm   []time.Duration // each warm operation
	alloc  uint64          // heap bytes allocated in the timed phases
	live   uint64          // live heap after a forced GC, everything open
	digest string
	named  *samples
}

// tracedResult is one traced pass: its per-layer values and spans.
type tracedResult struct {
	layer map[string]float64
	spans []span
	named *samples
}

//go:embed reference.json
var referenceJSON []byte

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: study-paper, grid-small or serve-batch")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 30, "how long the untraced passes measure")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer metrics")
	flag.Parse()
	var w *workload
	for _, c := range workloadList {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload study-paper|grid-small|serve-batch --seed N --seconds S --trace 0|1")
		return 2
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{seed: *seed, window: time.Duration(*seconds) * time.Second, named: newSamples()}
	b.tmp, err = os.MkdirTemp(filepath.Join(outDir, "tmp"), w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.tmp)
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.RemoveAll(b.tmp)
		os.Exit(3)
	})

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d %s\n",
		w.name, b.seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var (
		metrics map[string]float64
		want    []declared
	)
	if *traceFlag == 0 {
		metrics, err = endToEnd(b, w)
		want = decl.EndToEnd
	} else {
		metrics, err = traced(b, w)
		want = decl.PerLayer
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(b, metrics, want)
	out, err := resultLine(b, metrics, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(out)
	if b.ck.failed > 0 {
		return 1
	}
	return 0
}

// endToEnd repeats untraced passes for the measuring window and reduces
// them to the end-to-end metrics.
func endToEnd(b *bench, w *workload) (map[string]float64, error) {
	var (
		passes []*passResult
		durs   []float64
	)
	start := time.Now()
	for {
		t0 := time.Now()
		b.pass++
		p, err := w.pass(b)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		durs = append(durs, sec(time.Since(t0)))
		b.named.merge(p.named)
		// Start another pass only if it should end inside the window.
		if len(passes) >= w.minPasses && sec(time.Since(start))+median(durs) > b.window.Seconds() {
			break
		}
	}
	b.note("%d untraced passes in %.1f s", len(passes), sec(time.Since(start)))
	checkDigests(b, w.name, passes)

	var setup, cold, warm, alloc, live []float64
	for _, p := range passes {
		for _, d := range p.setup {
			setup = append(setup, sec(d))
		}
		cold = append(cold, sec(p.cold))
		for _, d := range p.warm {
			warm = append(warm, ms(d))
		}
		alloc = append(alloc, float64(p.alloc)/1e6)
		live = append(live, float64(p.live)/1e6)
	}
	b.named.add("setup_s", "s", setup...)
	b.named.add("cold_s", "s", cold...)
	// The warm tail is reported with the series, not as a metric: on a
	// shared 2-core host its spread over ten runs reached 0.58 of its
	// median, past any bound BENCHMARK.json may set.
	b.named.add("warm_ms", "ms", warm...)
	return map[string]float64{
		"setup_s":      median(setup),
		"cold_s":       median(cold),
		"warm_p50_ms":  median(warm),
		"alloc_mb":     median(alloc),
		"live_heap_mb": median(live),
	}, nil
}

// checkDigests requires every pass to produce one output digest and, at
// the default seed, the digest reference.json records.
func checkDigests(b *bench, name string, passes []*passResult) {
	for i, p := range passes[1:] {
		var err error
		if p.digest != passes[0].digest {
			err = fmt.Errorf("pass %d digest %s, pass 0 digest %s", i+1, p.digest, passes[0].digest)
		}
		b.ck.op("output digest stable across passes", err)
	}
	b.note("output digest %s", passes[0].digest)
	if b.seed != defaultSeed {
		return
	}
	var ref map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		b.ck.op("reference digest", err)
		return
	}
	var err error
	if ref[name] != passes[0].digest {
		err = fmt.Errorf("digest %s, reference %q", passes[0].digest, ref[name])
	}
	b.ck.op("reference digest at the default seed", err)
}

// traced runs the workload's traced pass(es) within the window and
// reduces them to the per-layer metrics (medians over passes).
func traced(b *bench, w *workload) (map[string]float64, error) {
	var all []*tracedResult
	var durs []float64
	start := time.Now()
	for {
		t0 := time.Now()
		r, err := w.traced(b)
		if err != nil {
			return nil, err
		}
		all = append(all, r)
		durs = append(durs, sec(time.Since(t0)))
		b.named.merge(r.named)
		if sec(time.Since(start))+median(durs) > b.window.Seconds() {
			break
		}
	}
	b.note("%d traced passes in %.1f s", len(all), sec(time.Since(start)))
	path, err := writeSpans(filepath.Join(outDir, "spans"), w.name, b.seed, all[len(all)-1].spans)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	b.note("spans of the last traced pass: %s", path)
	out := map[string]float64{}
	for k := range all[0].layer {
		var vs []float64
		for _, r := range all {
			vs = append(vs, r.layer[k])
		}
		out[k] = median(vs)
	}
	return out, nil
}

// declared is one metric of BENCHMARK.json.
type declared struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Moves string `json:"-"`
}

type declaration struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

//go:embed layers.json
var layersJSON []byte

// loadDeclared reads the metric lists of BENCHMARK.json and attaches to
// each per-layer metric the end-to-end metric and workload it should
// move, from layers.json; the two files must name the same metrics.
func loadDeclared(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	var moves map[string]string
	if err := json.Unmarshal(layersJSON, &moves); err != nil {
		return nil, fmt.Errorf("parsing layers.json: %w", err)
	}
	for i := range d.PerLayer {
		m, ok := moves[d.PerLayer[i].Name]
		if !ok {
			return nil, fmt.Errorf("layers.json does not map per-layer metric %s", d.PerLayer[i].Name)
		}
		d.PerLayer[i].Moves = m
	}
	if len(moves) != len(d.PerLayer) {
		return nil, fmt.Errorf("layers.json maps %d metrics, BENCHMARK.json declares %d", len(moves), len(d.PerLayer))
	}
	return &d, nil
}

func resultLine(b *bench, metrics map[string]float64, want []declared) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range want {
		v, ok := metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{v, d.Unit}
	}
	if len(metrics) != len(want) {
		var extra []string
		for k := range metrics {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return "", fmt.Errorf("measured metrics BENCHMARK.json does not declare: %v", extra)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.ck.failed == 0, b.ck.attempted, b.ck.failed, out})
	return string(line), err
}

func printReport(b *bench, metrics map[string]float64, want []declared) {
	for _, n := range b.notes {
		fmt.Println("  " + n)
	}
	fmt.Println("series (median, range; p90 where at least ten samples lie beyond it):")
	for _, name := range b.named.order {
		s := b.named.byKey[name]
		line := fmt.Sprintf("  %-28s %12s %-9s n=%d  [%s, %s]", s.name, fmtNum(median(s.vals)), s.unit, len(s.vals),
			fmtNum(quantile(s.vals, 0)), fmtNum(quantile(s.vals, 1)))
		if p90Supported(len(s.vals)) {
			line += fmt.Sprintf("  p90 %s", fmtNum(quantile(s.vals, 0.9)))
		}
		fmt.Println(line)
	}
	rate := 0.0
	if b.ck.attempted > 0 {
		rate = float64(b.ck.failed) / float64(b.ck.attempted)
	}
	fmt.Printf("  %-28s %12s %-9s (%d of %d operations failed)\n", "error_rate", fmtNum(rate), "fraction", b.ck.failed, b.ck.attempted)
	for _, m := range b.ck.msgs {
		fmt.Println("  FAILED " + m)
	}
	fmt.Println("metrics:")
	for _, d := range want {
		line := fmt.Sprintf("  %-48s %14s %s", d.Name, fmtNum(metrics[d.Name]), d.Unit)
		if d.Moves != "" {
			line += "   moves: " + d.Moves
		}
		fmt.Println(line)
	}
}

func fmtNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strings.TrimRight(strings.TrimRight(strconv.FormatFloat(v, 'f', 4, 64), "0"), ".")
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// memSnapshot reads the runtime's allocation and GC counters.
func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// settle collects garbage twice — the second collection also frees
// what sync.Pool caches kept alive through the first — so every timed
// phase starts from the same heap, and the live heap reads the same.
func settle() {
	runtime.GC()
	runtime.GC()
}

// liveHeap settles the heap and returns its live size in bytes.
func liveHeap() uint64 {
	settle()
	m := memSnapshot()
	return m.HeapAlloc
}

// setupsPerPass is how many times each pass sets its workload up; every
// set-up is timed and all but the last are torn down again, so setup_s
// is a median over many samples.
const setupsPerPass = 20

// timedSetup runs setup setupsPerPass times, tearing down all but the
// last environment, and returns that one with every set-up's time.
func timedSetup[E any](setup func() (E, error), teardown func(E)) (E, []time.Duration, error) {
	var (
		env  E
		durs []time.Duration
	)
	for k := 0; k < setupsPerPass; k++ {
		if k > 0 {
			teardown(env)
		}
		t := time.Now()
		var err error
		env, err = setup()
		if err != nil {
			return env, nil, err
		}
		durs = append(durs, time.Since(t))
	}
	return env, durs, nil
}
