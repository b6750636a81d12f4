package main

import (
	"repro/internal/scenario"
)

var (
	appClasses = []string{"jpegcanny", "mpeg2"}
	strategies = []string{"shared", "partitioned"}
	// selfLayers are the layers whose self time the traced pass reports.
	selfLayers = []string{"workloads", "tracefile", "platform", "profile", "solver", "scenario", "store", "sweep", "explore", "serve"}
	// paperRatio is the paper's miss reduction from exclusive
	// partitioning, per application.
	paperRatio = map[string]float64{"2jpeg+canny": 5, "mpeg2": 6.5}
)

// layerValues computes every per-layer metric from a traced pass's
// spans plus the values measured outside spans (runner counters per
// phase, store sizes, serve counters, GC, model outputs and the tracing
// overhead). A layer the workload never calls reads 0.
func layerValues(spans []span, extra map[string]float64) map[string]float64 {
	g := groups(spans)
	get := func(name, key string) *group { return g[name+"|"+key] }
	m := map[string]float64{}
	perCall := func(total, count float64) float64 {
		if count == 0 {
			return 0
		}
		return total / count
	}
	for _, a := range appClasses {
		capture := get("tracefile.capture", a)
		m["workloads.factory_ms."+a] = get("workloads.factory", a).meanMs()
		m["tracefile.capture_ms."+a] = capture.meanMs()
		m["tracefile.trace_mb."+a] = capture.meanCount("trace_mb")
		m["tracefile.decode_ms."+a] = get("tracefile.decode", a).meanMs()
		m["tracefile.replay_factory_ms."+a] = get("tracefile.replay_factory", a).meanMs()
		m["core.profile_ms."+a] = get("core.profile", a).meanMs()
		obs := get("profile.observe", a)
		m["profile.observe_ms."+a] = obs.meanMs()
		m["profile.accesses."+a] = obs.meanCount("accesses")
		m["profile.ns_per_access."+a] = perCall(obs.meanMs()*1e6, obs.meanCount("accesses"))
		m["solver.mckp_ms."+a] = get("solver.mckp", a).meanMs()
		m["solver.ilp_ms."+a] = get("solver.ilp", a).meanMs()
		for _, s := range strategies {
			k := a + "." + s
			run := get("platform.run", k)
			m["platform.run_ms."+k] = run.meanMs()
			m["platform.ns_per_instr."+k] = perCall(run.meanMs()*1e6, run.meanCount("instructions"))
			m["platform.ns_per_l2_access."+k] = perCall(run.meanMs()*1e6, run.meanCount("l2_accesses"))
			m["cpu.instructions."+k] = run.meanCount("instructions")
			m["platform.makespan_cycles."+k] = run.meanCount("makespan_cycles")
			m["cache.l2_accesses."+k] = run.meanCount("l2_accesses")
			m["cache.l2_misses."+k] = run.meanCount("l2_misses")
			m["cache.l2_writebacks."+k] = run.meanCount("l2_writebacks")
			m["bus.requests."+k] = run.meanCount("bus_requests")
			m["bus.posts."+k] = run.meanCount("bus_posts")
			m["bus.wait_cycles."+k] = run.meanCount("bus_wait_cycles")
			m["rtos.switches."+k] = run.meanCount("rtos_switches")
		}
	}
	m["scenario.key_us"] = get("scenario.key", "").medianUs()
	m["scenario.hit_us"] = get("scenario.hit", "").medianUs()
	decodeHit := get("scenario.decode_hit", "").medianUs()
	m["scenario.decode_hit_us"] = decodeHit
	m["store.put_ms"] = get("store.put", "").meanMs()
	m["store.get_ms"] = get("store.get", "").meanMs()
	m["sweep.warm_execute_ms"] = get("sweep.execute", "").meanMs()
	m["sweep.aggregate_ms"] = get("sweep.aggregate", "").meanMs()
	m["explore.warm_ms"] = get("explore.run", "").meanMs()
	handler := get("serve.handler", "").medianUs()
	m["serve.handler_us"] = handler
	if handler > 0 {
		m["serve.self_us"] = handler - decodeHit
		m["serve.loopback_us"] = get("serve.loopback", "").medianUs() - handler
	} else {
		m["serve.self_us"], m["serve.loopback_us"] = 0, 0
	}
	self := selfTimes(spans)
	for _, l := range selfLayers {
		m[l+".self_ms"] = self[l]
	}
	m["trace.unattributed_ms"] = self["bench"]
	for _, k := range extraNames {
		m[k] = extra[k]
	}
	return m
}

// extraNames are the per-layer metrics measured outside spans.
var extraNames = func() []string {
	names := []string{
		"store.records", "store.mb", "explore.visited",
		"serve.requests", "serve.shed", "serve.incomplete",
		"gc.cycles", "gc.pause_ms",
		"model.jpegcanny_miss_ratio", "model.mpeg2_miss_ratio",
		"model.jpegcanny_err_pct", "model.mpeg2_err_pct", "model.max_rel_diff",
		"trace.overhead_ms",
	}
	for _, p := range []string{"cold", "warm"} {
		for _, c := range []string{"stage_runs", "memo_hits", "profile_runs", "optimize_runs", "run_runs", "trace_runs", "trace_hits", "disk_hits", "hit_ratio"} {
			names = append(names, "scenario."+p+"."+c)
		}
	}
	return names
}()

// addStats records a runner-counter delta as one phase's scenario.*
// metrics. hit_ratio is the share of stage lookups served without
// running the stage, from memory or disk.
func addStats(extra map[string]float64, phase string, st scenario.Stats) {
	p := "scenario." + phase + "."
	extra[p+"stage_runs"] = float64(st.StageRuns)
	extra[p+"memo_hits"] = float64(st.MemoHits)
	extra[p+"profile_runs"] = float64(st.ProfileRuns)
	extra[p+"optimize_runs"] = float64(st.OptimizeRuns)
	extra[p+"run_runs"] = float64(st.RunRuns)
	extra[p+"trace_runs"] = float64(st.TraceRuns)
	extra[p+"trace_hits"] = float64(st.TraceHits)
	extra[p+"disk_hits"] = float64(st.DiskHits)
	served := float64(st.MemoHits + st.DiskHits)
	if all := served + float64(st.StageRuns); all > 0 {
		extra[p+"hit_ratio"] = served / all
	}
}

// addModel records the simulated miss reduction of the first optimized
// result of each paper application among outs, its distance from the
// paper's figure, and the worst compositionality error.
func addModel(extra map[string]float64, outs []outcome) {
	seen := map[string]bool{}
	for i := range outs {
		o := &outs[i]
		if o.Partition != scenario.PartitionOptimized {
			continue
		}
		extra["model.max_rel_diff"] = max(extra["model.max_rel_diff"], o.MaxRelDiff)
		ref, ok := paperRatio[o.Workload]
		if !ok || seen[o.Workload] {
			continue
		}
		seen[o.Workload] = true
		name := appClass(o.Workload)
		r := o.missRatio()
		extra["model."+name+"_miss_ratio"] = r
		extra["model."+name+"_err_pct"] = (r/ref - 1) * 100
	}
}

// addGC records the collections and pause time between two snapshots.
func addGC(extra map[string]float64, before, after uint32, pauseBefore, pauseAfter uint64) {
	extra["gc.cycles"] = float64(after - before)
	extra["gc.pause_ms"] = float64(pauseAfter-pauseBefore) / 1e6
}
