package main

// Turning a pass into named metrics: the end-to-end set from an
// untraced pass, the per-layer set from a traced one.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"chronos/internal/workload"
)

// metric is one reported number. n and q describe percentiles.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	q     float64
}

// String renders the metric with its unit and sample count.
func (m metric) String() string {
	line := fmt.Sprintf("%-40s %14.6g %s", m.name, m.value, m.unit)
	if m.q > 0 {
		return line + fmt.Sprintf("  (p%.4g of n=%d)", 100*m.q, m.n)
	}
	if m.n > 0 {
		return line + fmt.Sprintf("  (n=%d)", m.n)
	}
	return line
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func pctlMetric(name string, p pctl) metric {
	return metric{name: name, unit: "ms", value: p.Value, n: p.N, q: p.Q}
}

// callLatencies returns SDK call durations in ms for calls matching
// keep, stamped with their start within the pass's window.
func callLatencies(r *passResult, keep func(call) bool) []sample {
	var out []sample
	for _, c := range r.rec.calls {
		if keep(c) {
			out = append(out, sample{at: c.start.Sub(r.start), v: ms(c.dur)})
		}
	}
	return out
}

// p50 and p99 read the median and tail of latency samples in the quiet
// slices.
func p50(r *passResult, xs []sample) pctl { return median(quietValues(xs, r.window, r.use)) }

func p99(r *passResult, xs []sample) pctl { return tail(quietValues(xs, r.window, r.use), 0.99) }

func isClaimHit(c call) bool { return c.op == opClaim && c.hit }

func isReport(c call) bool {
	return c.op == opProgress || c.op == opLog || c.op == opComplete
}

// jobsPerS is the job completion rate of a pass in its quiet slices.
func jobsPerS(r *passResult) float64 {
	return quietRate(jobIntervals(r), r.window, r.use)
}

// jobIntervals are the jobs' runs, claim to ack, as offsets into the
// window.
func jobIntervals(r *passResult) []interval {
	ivs := make([]interval, len(r.jobs))
	for i, j := range r.jobs {
		ivs[i] = interval{int64(j.claimStart.Sub(r.start)), int64(j.ackEnd.Sub(r.start))}
	}
	return ivs
}

// quietJobs returns the jobs whose Execute phase centres in a quiet
// slice, or all jobs when none does.
func quietJobs(r *passResult) []*jobRec {
	var kept []*jobRec
	for _, j := range r.jobs {
		mid := j.execStart.Add(j.execWall / 2).Sub(r.start)
		if r.use[sliceOf(mid, r.window)] {
			kept = append(kept, j)
		}
	}
	if len(kept) == 0 {
		return r.jobs
	}
	return kept
}

// jobOps is the requested volume of a job.
func jobOps(r *passResult, id string) int64 {
	var n int64
	for _, t := range r.phases[id] {
		n += t.ops
	}
	return n
}

// endToEnd computes the bounded user-facing metrics of an untraced
// pass.
func endToEnd(r *passResult, setups []float64) []metric {
	var opsPerS, lags []float64
	var paced []phaseTarget
	var pacedOps int64
	var pacedWall time.Duration
	jobs := quietJobs(r)
	for _, j := range jobs {
		ph := r.phases[j.id]
		if j.execWall > 0 {
			opsPerS = append(opsPerS, float64(jobOps(r, j.id))/j.execWall.Seconds())
		}
		lags = append(lags, ms(scheduleLag(j.execWall, ph)))
		if targetRate(ph) > 0 {
			paced, pacedOps, pacedWall = ph, pacedOps+jobOps(r, j.id), pacedWall+j.execWall
		}
	}
	// Jobs without a target rate cannot fall behind one: the attained
	// share is 1 by definition there.
	attained := 1.0
	if paced != nil {
		attained = rateAttained(pacedOps, pacedWall, paced)
	}
	sut := median(opsPerS)
	lag := median(lags)
	return []metric{
		{name: "setup_s", unit: "s", value: median(setups).Value, n: len(setups), q: 0.5},
		{name: "jobs_per_s", unit: "1/s", value: jobsPerS(r), n: len(r.jobs)},
		pctlMetric("claim_p50_ms", p50(r, callLatencies(r, isClaimHit))),
		pctlMetric("report_p50_ms", p50(r, callLatencies(r, isReport))),
		{name: "sut_ops_per_s", unit: "1/s", value: sut.Value, n: sut.N, q: sut.Q},
		{name: "rate_attained", unit: "ratio", value: attained, n: len(jobs)},
		{name: "schedule_lag_ms", unit: "ms", value: lag.Value, n: lag.N, q: lag.Q},
	}
}

// unbounded computes the user-facing metrics of an untraced pass that
// swing with the host or with rare stalls by more than any allowed
// bound: the tails, the longest wait for a job, and the peak resident
// set; they are reported with the per-layer set.
func unbounded(r *passResult) ([]metric, error) {
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	return []metric{
		pctlMetric("claim_p99_ms", p99(r, callLatencies(r, isClaimHit))),
		pctlMetric("report_p99_ms", p99(r, callLatencies(r, isReport))),
		{name: "claim_gap_ms_max", unit: "ms", value: ms(claimGap(r.rec.calls)), n: len(r.jobs)},
		{name: "max_rss_mb", unit: "MB", value: rss, n: 1},
	}, nil
}

// claimGap is the longest time between two consecutive claims that
// returned a job, by any agent: how long the agents went without work
// while jobs waited. The ROADMAP's delegated-claim stall shows here in
// full, where the slice medians of jobs_per_s pass over it.
func claimGap(calls []call) time.Duration {
	var grants []time.Time
	for _, c := range calls {
		if isClaimHit(c) {
			grants = append(grants, c.start.Add(c.dur))
		}
	}
	sort.Slice(grants, func(i, j int) bool { return grants[i].Before(grants[j]) })
	var gap time.Duration
	for i := 1; i < len(grants); i++ {
		gap = max(gap, grants[i].Sub(grants[i-1]))
	}
	return gap
}

// maxRSSMB reads the process's peak resident set (VmHWM).
func maxRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// traceTree indexes a traced pass's spans: children per span, with each
// rest span hung under the http attempt that carried its trace id.
func traceTree(spans []span) [][]int {
	attempt := map[string]int{}
	for i, sp := range spans {
		if sp.layer == "http" && sp.trace != "" {
			attempt[sp.trace] = i
		}
	}
	kids := make([][]int, len(spans))
	for i := range spans {
		sp := &spans[i]
		if sp.layer == "rest" {
			if a, ok := attempt[sp.trace]; ok {
				sp.parent = a
			}
		}
		if sp.parent >= 0 {
			kids[sp.parent] = append(kids[sp.parent], i)
		}
	}
	return kids
}

// checkTrace verifies each job's span accounting: every child lies
// inside its job span, the job span matches the wall time the Control
// wrapper measured, and self time plus the covered part of the children
// adds up to the job's wall time by two independent computations.
func checkTrace(r *passResult, kids [][]int) []string {
	spans := r.rec.spans
	var problems []string
	for _, j := range r.jobs {
		root := spans[j.root].iv
		wall := j.ackEnd.Sub(j.claimStart).Nanoseconds()
		if d := root.end - root.start; d != wall {
			problems = append(problems, fmt.Sprintf("trace: job %s span %dns, measured wall %dns", j.id, d, wall))
			continue
		}
		var ivs []interval
		for _, k := range kids[j.root] {
			iv := spans[k].iv
			if iv.start < root.start || iv.end > root.end || iv.end < iv.start {
				problems = append(problems, fmt.Sprintf("trace: job %s child %s.%s outside the job span", j.id, spans[k].layer, spans[k].op))
			}
			ivs = append(ivs, iv)
		}
		self := selfTime(root, ivs)
		if sweep := uncoveredBySweep(root.start, root.end, ivs); self != sweep || self+covered(root.start, root.end, ivs) != wall {
			problems = append(problems, fmt.Sprintf("trace: job %s self %dns, sweep %dns, wall %dns", j.id, self, sweep, wall))
		}
	}
	return problems
}

// perLayer computes the per-layer metrics of a traced pass. baseline is
// the untraced pass run just before it on a fresh system, and user its
// unbounded user-facing metrics.
func perLayer(wl *workloadSpec, r *passResult, baseline *passResult, user []metric, genNs float64) []metric {
	spans := r.rec.spans
	kids := traceTree(spans)
	jobs := float64(max(len(r.jobs), 1))

	var jobMs, selfMs []float64
	var calls int
	for _, j := range r.jobs {
		root := spans[j.root].iv
		var ivs []interval
		for _, k := range kids[j.root] {
			ivs = append(ivs, spans[k].iv)
			if spans[k].layer == "sdk" {
				calls++
			}
		}
		jobMs = append(jobMs, float64(root.end-root.start)/1e6)
		selfMs = append(selfMs, float64(selfTime(root, ivs))/1e6)
	}

	sdkMs := map[string][]float64{}
	restMs := map[string][]float64{}
	var wire, followerClaim []float64
	var sdkCalls, attempts int
	var bytes int64
	for i, sp := range spans {
		d := float64(sp.iv.end-sp.iv.start) / 1e6
		switch sp.layer {
		case "sdk":
			sdkCalls++
			if sp.op != opClaim || sp.parent >= 0 {
				sdkMs[sp.op] = append(sdkMs[sp.op], d)
			}
			handler, served := 0.0, false
			for _, a := range kids[i] {
				for _, h := range kids[a] {
					handler += float64(spans[h].iv.end-spans[h].iv.start) / 1e6
					served = true
				}
			}
			if served {
				wire = append(wire, d-handler)
			}
		case "http":
			attempts++
			bytes += sp.bytes
		case "rest":
			restMs[sp.op] = append(restMs[sp.op], d)
			if sp.op == opClaim && sp.server == "follower" {
				followerClaim = append(followerClaim, d)
			}
		}
	}

	var claims, hits float64
	for _, c := range r.rec.calls {
		if c.op == opClaim {
			claims++
			if c.hit {
				hits++
			}
		}
	}

	lead, foll, end := r.delta.lead, r.delta.foll, r.end
	httpAll := lead.sum("chronos_http_requests_total") + foll.sum("chronos_http_requests_total")
	http2xx := lead.sum("chronos_http_requests_total", `code="2`) + foll.sum("chronos_http_requests_total", `code="2`)
	commits := lead.sum("chronos_store_commits_total")
	fsyncs := lead.sum("chronos_store_wal_fsyncs_total")

	var execMs, prepMs []float64
	for _, j := range r.jobs {
		execMs = append(execMs, ms(j.execWall))
		prepMs = append(prepMs, ms(j.prepare))
	}
	var hitsC, missC float64
	var compress, checkpoints, sealed, ooo []float64
	for _, doc := range r.results {
		st := doc.EngineStats
		hitsC += st["cacheHits"]
		missC += st["cacheMisses"]
		compress = append(compress, st["compressionRatio"])
		checkpoints = append(checkpoints, st["checkpoints"])
		sealed = append(sealed, st["chunksSealed"])
		ooo = append(ooo, st["outOfOrder"])
	}
	mongo := wl.family == mongoFamily
	onlyIf := func(ok bool, v float64) float64 {
		if ok {
			return v
		}
		return 0
	}

	m := []metric{
		pctlMetric("agent.job_ms_p50", median(jobMs)),
		{name: "agent.self_ms_per_job", unit: "ms", value: mean(selfMs), n: len(selfMs)},
		{name: "agent.calls_per_job", unit: "count", value: float64(calls) / jobs},
	}
	for _, op := range []string{opClaim, opProgress, opLog, opComplete} {
		m = append(m, pctlMetric("client.call_ms_p50."+op, median(sdkMs[op])))
	}
	m = append(m,
		pctlMetric("client.wire_ms_p50", median(wire)),
		metric{name: "client.http_attempts_per_call", unit: "ratio", value: float64(attempts) / float64(max(sdkCalls, 1))},
		metric{name: "client.bytes_per_job", unit: "B", value: float64(bytes) / jobs},
		metric{name: "client.claim_hit_ratio", unit: "ratio", value: hits / max(claims, 1)},
	)
	for _, op := range []string{opClaim, opProgress, opLog, opComplete} {
		m = append(m, pctlMetric("rest.handler_ms_p50."+op, median(restMs[op])))
	}
	m = append(m,
		pctlMetric("rest.handler_ms_p99.claim", tail(restMs[opClaim], 0.99)),
		metric{name: "rest.non2xx", unit: "count", value: httpAll - http2xx},
		metric{name: "relstore.commits_per_job", unit: "count", value: commits / jobs},
		metric{name: "relstore.fsyncs_per_job", unit: "count", value: fsyncs / jobs},
		metric{name: "relstore.records_per_fsync", unit: "ratio", value: commits / max(fsyncs, 1)},
		metric{name: "relstore.commit_batch_ms_p50", unit: "ms", value: 1e3 * end.lead.sum("chronos_store_commit_batch_seconds", `quantile="0.5"`)},
		metric{name: "relstore.commit_batch_ms_p99", unit: "ms", value: 1e3 * end.lead.sum("chronos_store_commit_batch_seconds", `quantile="0.99"`)},
		metric{name: "relstore.compactions", unit: "count", value: lead.sum("chronos_store_compactions_total")},
		metric{name: "relstore.compaction_ms_p50", unit: "ms", value: 1e3 * end.lead.sum("chronos_store_compaction_seconds", `quantile="0.5"`)},
		metric{name: "relstore.bytes_written_per_job", unit: "B", value: float64(r.delta.ioWrite) / jobs},
		metric{name: "core.claim_intent_batch_records_p50", unit: "count", value: end.lead.sum("chronos_claim_intent_batch_records", `quantile="0.5"`)},
		metric{name: "core.lease_grants", unit: "count", value: lead.sum("chronos_claim_lease_grants_total")},
		metric{name: "repl.delegated_share", unit: "ratio", value: foll.sum("chronos_claim_delegated_served_total") / max(hits, 1)},
		metric{name: "repl.conflicts", unit: "count", value: foll.sum("chronos_claim_delegated_conflicts_total")},
		metric{name: "repl.lease_faults", unit: "count", value: foll.sum("chronos_claim_delegated_lease_faults_total")},
		metric{name: "repl.delegate_batch_records_p50", unit: "count", value: end.foll.sum("chronos_claim_delegate_batch_records", `quantile="0.5"`)},
		metric{name: "repl.lag_bytes_max", unit: "B", value: float64(r.lagMax)},
		pctlMetric("repl.follower_claim_ms_p50", median(followerClaim)),
		metric{name: "workload.execute_ms_per_job", unit: "ms", value: mean(execMs), n: len(execMs)},
		metric{name: "workload.gen_ns_per_op", unit: "ns", value: genNs},
		metric{name: "mongoagent.prepare_ms_per_job", unit: "ms", value: onlyIf(mongo, mean(prepMs)), n: len(prepMs)},
		metric{name: "mongosim.cache_hit_ratio", unit: "ratio", value: onlyIf(mongo, hitsC/max(hitsC+missC, 1))},
		metric{name: "mongosim.compression_ratio", unit: "ratio", value: onlyIf(mongo, mean(compress))},
		metric{name: "mongosim.checkpoints", unit: "count", value: onlyIf(mongo, mean(checkpoints))},
		metric{name: "tssim.chunks_sealed", unit: "count", value: onlyIf(!mongo, mean(sealed))},
		metric{name: "tssim.out_of_order", unit: "count", value: onlyIf(!mongo, mean(ooo))},
		metric{name: "process.cpu_ms_per_job", unit: "ms", value: ms(r.delta.cpu) / jobs},
		metric{name: "process.alloc_mb_per_job", unit: "MB", value: float64(r.delta.alloc) / (1 << 20) / jobs},
		metric{name: "process.gc_cycles", unit: "count", value: float64(r.delta.gcCycles)},
		metric{name: "process.gc_pause_ms", unit: "ms", value: ms(r.delta.gcPause)},
		metric{name: "error_rate", unit: "ratio", value: float64(r.failed) / float64(max(r.attempts, 1))},
		metric{name: "trace.jobs_per_s_ratio", unit: "ratio", value: jobsPerS(r) / max(jobsPerS(baseline), 1e-9)},
	)
	return append(m, user...)
}

// genProbe times ScheduleGenerator.Next alone over the workload's job
// schedule, for every worker, until at least minOps operations ran.
func genProbe(wl *workloadSpec, seed int64) (float64, error) {
	const minOps = 200_000
	sched, err := wl.schedule(seed)
	if err != nil {
		return 0, err
	}
	var ops int64
	var spent time.Duration
	for ops < minOps {
		for w := 0; w < wl.threads; w++ {
			g, err := workload.NewScheduleGenerator(sched, w, wl.threads)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			for {
				if _, ok := g.Next(); !ok {
					break
				}
				ops++
			}
			spent += time.Since(start)
		}
	}
	return float64(spent.Nanoseconds()) / float64(ops), nil
}
