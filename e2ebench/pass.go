package main

// One measured pass: agents work through a fixed number of jobs while a
// feeder keeps evaluations coming, one batch ahead of the claims; the
// correctness gate checks every job afterwards.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/pkg/client"
)

const (
	// pollInterval is the agents' idle wait after an empty claim.
	pollInterval = 20 * time.Millisecond
	// reportInterval is the agent library's default reporting cadence.
	reportInterval = 250 * time.Millisecond
	// stuckFactor bounds a pass at this many times its nominal length
	// (plus stuckSlack) before it is declared stuck.
	stuckFactor = 5
	stuckSlack  = 15 * time.Second
	// maxClaimFails is how many consecutive failed claims an agent rides
	// out, as agent.Agent.Run does by default.
	maxClaimFails = 8
)

// counters are the process-wide counters diffed over a pass.
type counters struct {
	lead, foll scrape
	ioWrite    int64
	cpu        time.Duration
	alloc      uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readCounters(sys *system) (counters, error) {
	var c counters
	var err error
	if c.lead, err = metricsText(sys.reg); err != nil {
		return c, err
	}
	if c.foll, err = metricsText(sys.freg); err != nil {
		return c, err
	}
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return c, err
	}
	io, err := parseProcIO(string(raw))
	if err != nil {
		return c, err
	}
	c.ioWrite = io["write_bytes"]
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, err
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gcCycles, c.gcPause = ms.TotalAlloc, ms.NumGC, time.Duration(ms.PauseTotalNs)
	return c, nil
}

// diff returns the change from c0 to c.
func (c counters) diff(c0 counters) counters {
	return counters{
		lead:     c.lead.minus(c0.lead),
		foll:     c.foll.minus(c0.foll),
		ioWrite:  c.ioWrite - c0.ioWrite,
		cpu:      c.cpu - c0.cpu,
		alloc:    c.alloc - c0.alloc,
		gcCycles: c.gcCycles - c0.gcCycles,
		gcPause:  c.gcPause - c0.gcPause,
	}
}

// readSteal returns the machine's stolen CPU ticks, the eighth field of
// the cpu line in /proc/stat.
func readSteal() (int64, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// resultDoc is the part of a stored job result the benchmark reads.
type resultDoc struct {
	Operations  int64              `json:"operations"`
	Errors      int64              `json:"errors"`
	EngineStats map[string]float64 `json:"engineStats"`
	Phases      []core.PhaseResult `json:"phaseResults"`
}

// passResult is everything a pass measured.
type passResult struct {
	rec      *recorder
	start    time.Time     // first claim start
	window   time.Duration // first claim start to last completion ack
	steal    []stealPoint  // host steal counter over the pass, from start
	use      []bool        // the quiet slices (quietSlices)
	jobs     []*jobRec     // every completed job
	results  map[string]resultDoc
	phases   map[string][]phaseTarget // by job id
	delta    counters                 // over the agents' run
	end      counters                 // at the end (summary quantiles)
	lagMax   int64
	sutOps   int64
	failed   int64
	attempts int64
	problems []string
}

// pass is the state shared by the feeder and the agents.
type pass struct {
	sys *system
	rec *recorder

	mu       sync.Mutex
	expected []*core.Job
	problems []string

	total   int64        // jobs the pass schedules in all
	created atomic.Int64 // jobs scheduled so far
}

func (p *pass) violate(format string, args ...any) {
	p.mu.Lock()
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// runPass drives sys through the jobs of seconds at the workload's
// nominal rate and checks the outcome.
func runPass(sys *system, rec *recorder, seconds float64) (*passResult, error) {
	p := &pass{sys: sys, rec: rec, expected: sys.firstEval, total: sys.wl.jobs(seconds)}
	p.created.Store(int64(len(sys.firstEval)))

	c0, err := readCounters(sys)
	if err != nil {
		return nil, err
	}
	limit := time.Duration(stuckFactor*seconds*float64(time.Second)) + stuckSlack
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.feed(ctx)
	}()
	var transports []*http.Transport
	for i := 0; i < sys.wl.agents; i++ {
		a, tr := p.newAgent()
		transports = append(transports, tr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.runAgent(ctx, a)
		}()
	}
	var lagMax atomic.Int64
	var steal []stampedTicks
	stop := make(chan struct{})
	var samplers sync.WaitGroup
	samplers.Add(1)
	go func() {
		defer samplers.Done()
		steal = sampleSteal(stop)
	}()
	if rec.tracing && sys.follower != nil {
		samplers.Add(1)
		go func() {
			defer samplers.Done()
			sampleLag(sys, &lagMax, stop)
		}()
	}
	wg.Wait()
	close(stop)
	samplers.Wait()
	for _, tr := range transports {
		tr.CloseIdleConnections()
	}
	if rec.settled.Load() < p.total {
		p.violate("pass: %d of %d jobs settled within %v", rec.settled.Load(), p.total, limit)
	}

	c1, err := readCounters(sys)
	if err != nil {
		return nil, err
	}
	res := &passResult{rec: rec, delta: c1.diff(c0), end: c1, lagMax: lagMax.Load()}
	if err := p.check(res); err != nil {
		return nil, err
	}
	for _, st := range steal {
		res.steal = append(res.steal, stealPoint{at: st.at.Sub(res.start), ticks: st.ticks})
	}
	res.use = quietSlices(res.steal, res.window, runtime.NumCPU())
	return res, nil
}

// stampedTicks is a reading of the host steal counter.
type stampedTicks struct {
	at    time.Time
	ticks int64
}

// sampleSteal reads the host steal counter every 50ms until stop
// closes, and once more then.
func sampleSteal(stop chan struct{}) []stampedTicks {
	var out []stampedTicks
	read := func() {
		if ticks, err := readSteal(); err == nil {
			out = append(out, stampedTicks{time.Now(), ticks})
		}
	}
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	read()
	for {
		select {
		case <-stop:
			read()
			return out
		case <-t.C:
			read()
		}
	}
}

// newAgent builds one agent: an SDK client with its own single
// connection per host, behind the benchmark's Control wrapper and, when
// tracing, its transport tap.
func (p *pass) newAgent() (*agent.Agent, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	ctl := newBenchControl(nil, p.rec)
	var rt http.RoundTripper = tr
	if p.rec.tracing {
		rt = &tapTransport{base: tr, rec: p.rec, ctl: ctl}
	}
	opts := []client.Option{client.WithVersion("v2"), client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 30 * time.Second})}
	base := p.sys.url
	if p.sys.follower != nil {
		base = p.sys.furl
		opts = append(opts, client.WithLeader(p.sys.url))
	}
	ctl.inner = client.NewClient(base, opts...)
	fam := p.sys.wl.family
	return &agent.Agent{
		Control:        ctl,
		DeploymentID:   p.sys.deploymentID,
		Factory:        func() agent.Runner { return &timedRunner{inner: fam.factory(), rec: p.rec} },
		PollInterval:   pollInterval,
		ReportInterval: reportInterval,
	}, tr
}

// feed schedules another evaluation whenever fewer than a batch of jobs
// wait unclaimed, until the pass's jobs are all scheduled.
func (p *pass) feed(ctx context.Context) {
	batch := int64(p.sys.wl.batch)
	for p.created.Load() < p.total {
		if p.created.Load()-p.claimed() < batch {
			jobs, err := p.sys.schedule()
			if err != nil {
				p.violate("feeder: create evaluation: %v", err)
				return
			}
			p.mu.Lock()
			p.expected = append(p.expected, jobs...)
			p.mu.Unlock()
			p.created.Add(int64(len(jobs)))
			continue
		}
		select {
		case <-p.rec.claimed:
		case <-ctx.Done():
			return
		}
	}
}

// claimed counts distinct jobs handed to agents so far.
func (p *pass) claimed() int64 {
	p.rec.mu.Lock()
	defer p.rec.mu.Unlock()
	return int64(len(p.rec.jobs))
}

// runAgent is a closed loop: claim, run, report, until every job of the
// pass has settled.
func (p *pass) runAgent(ctx context.Context, a *agent.Agent) {
	fails := 0
	for ctx.Err() == nil {
		if p.rec.settled.Load() >= p.total {
			return
		}
		worked, err := a.RunOnce(ctx)
		if err != nil {
			fails++
			if fails > maxClaimFails {
				p.violate("agent: %d consecutive claim failures, last: %v", fails, err)
				return
			}
		} else {
			fails = 0
		}
		if !worked {
			select {
			case <-ctx.Done():
			case <-time.After(pollInterval):
			}
		}
	}
}

// sampleLag records the follower's largest byte lag until stop closes.
func sampleLag(sys *system, maxLag *atomic.Int64, stop chan struct{}) {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if l := sys.follower.Status().LagBytes; l > maxLag.Load() {
				maxLag.Store(l)
			}
		}
	}
}

// check is the correctness gate. Every scheduled job must be claimed by
// exactly one agent, acked complete exactly once, and stored finished
// with a result whose operation count equals the requested count (per
// phase, for phased schedules). Every evaluation must end finished.
// Each violation is named; violations and failed calls count as
// failures.
func (p *pass) check(res *passResult) error {
	rec := p.rec
	bad := map[string]bool{}
	var jobProblems []string
	jobProblem := func(id, format string, args ...any) {
		bad[id] = true
		jobProblems = append(jobProblems, fmt.Sprintf("job %s: "+format, append([]any{id}, args...)...))
	}
	for _, id := range rec.dupClaims {
		jobProblem(id, "handed to an agent more than once")
	}
	res.results = map[string]resultDoc{}
	res.phases = map[string][]phaseTarget{}
	evals := map[string]bool{}
	var first, last time.Time
	for _, j := range p.expected {
		evals[j.EvaluationID] = true
		r := rec.jobs[j.ID]
		switch {
		case r == nil:
			jobProblem(j.ID, "never claimed")
			continue
		case r.completes != 1:
			jobProblem(j.ID, "acked complete %d times", r.completes)
		case r.fails > 0:
			jobProblem(j.ID, "reported failed")
		}
		if r.completes > 0 {
			res.jobs = append(res.jobs, r)
			if first.IsZero() || r.claimStart.Before(first) {
				first = r.claimStart
			}
			if r.ackEnd.After(last) {
				last = r.ackEnd
			}
		}
		stored, err := p.sys.svc.GetJob(j.ID)
		if err != nil {
			return err
		}
		if stored.Status != core.StatusFinished || stored.Attempts != 1 {
			jobProblem(j.ID, "stored %s after %d attempts", stored.Status, stored.Attempts)
			continue
		}
		sched, err := p.sys.wl.schedule(j.Params.Int("seed", 0))
		if err != nil {
			return err
		}
		want, err := targets(sched)
		if err != nil {
			return err
		}
		result, err := p.sys.svc.GetJobResult(j.ID)
		if err != nil {
			jobProblem(j.ID, "no stored result: %v", err)
			continue
		}
		var doc resultDoc
		if err := json.Unmarshal(result.JSON, &doc); err != nil {
			jobProblem(j.ID, "result: %v", err)
			continue
		}
		var total int64
		for _, t := range want {
			total += t.ops
		}
		res.sutOps += total
		if doc.Operations != total {
			jobProblem(j.ID, "result has %d operations, %d requested", doc.Operations, total)
		}
		if doc.Errors > 0 {
			res.failed += doc.Errors
			jobProblem(j.ID, "%d SUT operations failed", doc.Errors)
		}
		if len(want) > 1 {
			if len(doc.Phases) != len(want) {
				jobProblem(j.ID, "%d phase results for %d phases", len(doc.Phases), len(want))
			} else {
				for i, ph := range doc.Phases {
					if ph.Operations != want[i].ops {
						jobProblem(j.ID, "phase %q executed %d of %d scheduled operations", ph.Phase, ph.Operations, want[i].ops)
					}
				}
			}
		}
		res.results[j.ID] = doc
		res.phases[j.ID] = want
	}
	for id := range evals {
		st, err := p.sys.svc.EvaluationStatusOf(id)
		if err != nil {
			return err
		}
		if st.Finished != st.Total {
			p.violate("evaluation %s: %d of %d jobs finished", id, st.Finished, st.Total)
		}
	}
	if len(res.jobs) == 0 {
		p.violate("pass: no job completed")
	} else {
		res.start, res.window = first, last.Sub(first)
	}

	var failedCalls int64
	for _, c := range rec.calls {
		if c.err {
			failedCalls++
		}
	}
	res.problems = append(p.problems, jobProblems...)
	res.attempts = int64(len(rec.calls)) + int64(len(p.expected)) + res.sutOps
	res.failed += failedCalls + int64(len(bad)) + int64(len(p.problems))
	return nil
}
