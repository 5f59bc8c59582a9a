package main

// The benchmark's wrappers around the layers it measures. Untraced runs
// use only the SDK-call timer (benchControl) and the Execute timer
// (timedRunner); a traced run also installs the HTTP transport and
// handler taps and keeps every span in memory until the run ends.
//
// Span tree of one job:
//
//	job (claim start .. complete ack)
//	├── sdk.<call>            agent.Control call
//	│   └── http              one HTTP attempt (RoundTripper)
//	│       └── rest.<call>   server handler, matched by X-Chronos-Trace
//	└── runner.<phase>        agent.Runner phase

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/agent"
	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/params"
)

// SDK call kinds; rest routes map onto the same names.
const (
	opClaim     = "claim"
	opProgress  = "progress"
	opHeartbeat = "heartbeat"
	opLog       = "log"
	opComplete  = "complete"
	opFail      = "fail"
)

// span is one timed interval of the trace.
type span struct {
	layer  string // job, sdk, http, rest, runner
	op     string // claim, progress, ..., prepare, execute, ...
	server string // rest spans: leader or follower
	trace  string // X-Chronos-Trace of http and rest spans
	job    string
	parent int // index into recorder.spans, -1 for none
	iv     interval
	bytes  int64 // http spans: request plus response body bytes
}

// call is one agent.Control call as the agent saw it.
type call struct {
	op    string
	job   string
	start time.Time
	dur   time.Duration
	err   bool
	hit   bool // claims: a job came back
}

// jobRec is what the agents' wrappers saw of one job.
type jobRec struct {
	id         string
	claimStart time.Time
	ackEnd     time.Time
	completes  int
	fails      int
	execStart  time.Time
	execWall   time.Duration
	prepare    time.Duration
	root       int // job span (traced runs), -1 otherwise
}

// recorder collects calls, jobs and, when tracing, spans for one pass.
type recorder struct {
	tracing bool
	base    time.Time

	mu        sync.Mutex
	calls     []call
	jobs      map[string]*jobRec
	spans     []span
	dupClaims []string

	claimed chan struct{} // nudges the feeder after each hit
	settled atomic.Int64  // jobs acked complete or reported failed
}

func newRecorder(tracing bool) *recorder {
	return &recorder{
		tracing: tracing,
		base:    time.Now(),
		jobs:    map[string]*jobRec{},
		claimed: make(chan struct{}, 1),
	}
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.base).Nanoseconds() }

// open starts a span and returns its index; -1 when not tracing.
func (r *recorder) open(sp span, start time.Time) int {
	if !r.tracing {
		return -1
	}
	sp.iv.start = r.ns(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, sp)
	return len(r.spans) - 1
}

// close ends span i at end.
func (r *recorder) close(i int, end time.Time) {
	if i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].iv.end = r.ns(end)
	r.mu.Unlock()
}

// jobSpan returns the root span index of a job (-1 when unknown).
func (r *recorder) jobSpan(id string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j := r.jobs[id]; j != nil {
		return j.root
	}
	return -1
}

// benchControl times every agent.Control call of one agent. In a traced
// run it also opens the call's span and publishes it as the agent's
// current call, so the agent's transport can hang HTTP attempts under
// it. An agent makes its calls one at a time (the reporter stops before
// the final flush and Complete), so one current call per agent suffices.
type benchControl struct {
	inner agent.Control
	rec   *recorder
	cur   atomic.Int64 // current sdk span index, -1 when none
}

func newBenchControl(inner agent.Control, rec *recorder) *benchControl {
	c := &benchControl{inner: inner, rec: rec}
	c.cur.Store(-1)
	return c
}

// do runs one SDK call under timing and, when tracing, its span.
func (c *benchControl) do(op, job string, fn func() error) (call, int) {
	parent := -1
	if job != "" {
		parent = c.rec.jobSpan(job)
	}
	start := time.Now()
	sp := c.rec.open(span{layer: "sdk", op: op, job: job, parent: parent}, start)
	c.cur.Store(int64(sp))
	err := fn()
	end := time.Now()
	c.cur.Store(-1)
	c.rec.close(sp, end)
	return call{op: op, job: job, start: start, dur: end.Sub(start), err: err != nil}, sp
}

// note appends a finished call.
func (c *benchControl) note(cl call) {
	c.rec.mu.Lock()
	c.rec.calls = append(c.rec.calls, cl)
	c.rec.mu.Unlock()
}

// ClaimJob implements agent.Control. A hit opens the job's root span at
// the claim's start and adopts the claim span as its first child.
func (c *benchControl) ClaimJob(deploymentID string) (*core.Job, []params.Definition, error) {
	var (
		job  *core.Job
		defs []params.Definition
		err  error
	)
	cl, sp := c.do(opClaim, "", func() error {
		job, defs, err = c.inner.ClaimJob(deploymentID)
		return err
	})
	if job == nil {
		c.note(cl)
		return job, defs, err
	}
	cl.hit, cl.job = true, job.ID
	r := c.rec
	root := r.open(span{layer: "job", op: "job", job: job.ID, parent: -1}, cl.start)
	r.mu.Lock()
	r.calls = append(r.calls, cl)
	j := r.jobs[job.ID]
	if j == nil {
		j = &jobRec{id: job.ID, claimStart: cl.start, root: root}
		r.jobs[job.ID] = j
	} else {
		r.dupClaims = append(r.dupClaims, job.ID)
	}
	if sp >= 0 {
		r.spans[sp].parent, r.spans[sp].job = root, job.ID
	}
	r.mu.Unlock()
	select {
	case r.claimed <- struct{}{}:
	default:
	}
	return job, defs, err
}

// Progress implements agent.Control.
func (c *benchControl) Progress(jobID string, percent int64) (core.JobStatus, error) {
	var st core.JobStatus
	var err error
	cl, _ := c.do(opProgress, jobID, func() error {
		st, err = c.inner.Progress(jobID, percent)
		return err
	})
	c.note(cl)
	return st, err
}

// Heartbeat implements agent.Control.
func (c *benchControl) Heartbeat(jobID string) (core.JobStatus, error) {
	var st core.JobStatus
	var err error
	cl, _ := c.do(opHeartbeat, jobID, func() error {
		st, err = c.inner.Heartbeat(jobID)
		return err
	})
	c.note(cl)
	return st, err
}

// AppendLog implements agent.Control.
func (c *benchControl) AppendLog(jobID, text string) error {
	var err error
	cl, _ := c.do(opLog, jobID, func() error {
		err = c.inner.AppendLog(jobID, text)
		return err
	})
	c.note(cl)
	return err
}

// Complete implements agent.Control; its return closes the job span.
func (c *benchControl) Complete(jobID string, resultJSON, archive []byte) error {
	var err error
	cl, _ := c.do(opComplete, jobID, func() error {
		err = c.inner.Complete(jobID, resultJSON, archive)
		return err
	})
	c.settle(cl, err == nil)
	return err
}

// Fail implements agent.Control; its return closes the job span.
func (c *benchControl) Fail(jobID, reason string) error {
	var err error
	cl, _ := c.do(opFail, jobID, func() error {
		err = c.inner.Fail(jobID, reason)
		return err
	})
	c.settle(cl, false)
	return err
}

// settle records a job's last call: an acked completion or a failure.
func (c *benchControl) settle(cl call, acked bool) {
	r := c.rec
	end := cl.start.Add(cl.dur)
	r.mu.Lock()
	r.calls = append(r.calls, cl)
	if j := r.jobs[cl.job]; j != nil {
		if acked {
			j.completes++
			j.ackEnd = end
		} else {
			j.fails++
		}
		if j.root >= 0 {
			r.spans[j.root].iv.end = r.ns(end)
		}
	}
	r.mu.Unlock()
	r.settled.Add(1)
}

// tapTransport records one http span per attempt, from RoundTrip until
// the SDK closes the response body, under the agent's current call.
type tapTransport struct {
	base http.RoundTripper
	rec  *recorder
	ctl  *benchControl
}

func (t *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	sp := span{
		layer:  "http",
		op:     routeOp(req.URL.Path),
		trace:  req.Header.Get(api.HeaderTrace),
		parent: int(t.ctl.cur.Load()),
		bytes:  max(req.ContentLength, 0),
	}
	i := t.rec.open(sp, start)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.close(i, time.Now())
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, rec: t.rec, span: i}
	return resp, nil
}

// countingBody adds the response bytes to the attempt's span and ends
// the span when the body is closed.
type countingBody struct {
	io.ReadCloser
	rec  *recorder
	span int
	n    int64
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		end := time.Now()
		b.rec.mu.Lock()
		b.rec.spans[b.span].bytes += b.n
		b.rec.spans[b.span].iv.end = b.rec.ns(end)
		b.rec.mu.Unlock()
	})
	return err
}

// handlerTap records a rest span for every agent route a server answers.
type handlerTap struct {
	next   http.Handler
	rec    *recorder
	server string
}

func (h *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := routeOp(r.URL.Path)
	if op == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	i := h.rec.open(span{layer: "rest", op: op, server: h.server, trace: r.Header.Get(api.HeaderTrace), parent: -1}, start)
	h.next.ServeHTTP(w, r)
	h.rec.close(i, time.Now())
}

// routeOp names the agent route of a request path; "" for the rest.
func routeOp(path string) string {
	if strings.HasSuffix(path, "/jobs/claim") {
		return opClaim
	}
	if !strings.Contains(path, "/jobs/") {
		return ""
	}
	for _, op := range []string{opProgress, opHeartbeat, opLog, opComplete, opFail} {
		if strings.HasSuffix(path, "/"+op) {
			return op
		}
	}
	return ""
}

// timedRunner wraps the SUT runner the agent's Factory builds: it times
// Prepare and Execute for every job and, when tracing, records a span
// per phase under the job's root span.
type timedRunner struct {
	inner agent.Runner
	rec   *recorder
}

func (t *timedRunner) phase(rc *agent.RunContext, name string, fn func() error) error {
	id := rc.Job.ID
	start := time.Now()
	sp := t.rec.open(span{layer: "runner", op: name, job: id, parent: t.rec.jobSpan(id)}, start)
	err := fn()
	end := time.Now()
	t.rec.close(sp, end)
	if name == agent.PhaseExecute || name == agent.PhasePrepare {
		t.rec.mu.Lock()
		if j := t.rec.jobs[id]; j != nil {
			if name == agent.PhaseExecute {
				j.execStart, j.execWall = start, end.Sub(start)
			} else {
				j.prepare = end.Sub(start)
			}
		}
		t.rec.mu.Unlock()
	}
	return err
}

func (t *timedRunner) Prepare(rc *agent.RunContext) error {
	return t.phase(rc, agent.PhasePrepare, func() error { return t.inner.Prepare(rc) })
}

func (t *timedRunner) WarmUp(rc *agent.RunContext) error {
	return t.phase(rc, agent.PhaseWarmUp, func() error { return t.inner.WarmUp(rc) })
}

func (t *timedRunner) Execute(rc *agent.RunContext) error {
	return t.phase(rc, agent.PhaseExecute, func() error { return t.inner.Execute(rc) })
}

func (t *timedRunner) Analyze(rc *agent.RunContext) (map[string]any, error) {
	var res map[string]any
	err := t.phase(rc, agent.PhaseAnalyze, func() (err error) {
		res, err = t.inner.Analyze(rc)
		return err
	})
	return res, err
}

func (t *timedRunner) Clean(rc *agent.RunContext) error {
	return t.phase(rc, agent.PhaseClean, func() error { return t.inner.Clean(rc) })
}
