package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestMedianIsNearestRank(t *testing.T) {
	if p := median(seq(5)); p.Value != 3 || p.N != 5 || p.Q != 0.6 {
		t.Fatalf("median of 1..5 = %+v", p)
	}
	if p := median(seq(4)); p.Value != 2 || p.Q != 0.5 {
		t.Fatalf("median of 1..4 = %+v, want the lower middle", p)
	}
	if p := median(nil); p != (pctl{}) {
		t.Fatalf("median of nothing = %+v", p)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		value float64
	}{
		{2000, 1980}, // p99 itself: 20 samples beyond
		{1000, 990},  // p99: exactly 10 beyond
		{500, 490},   // p99 would leave 5 beyond; p98 leaves 10
		{100, 90},
		{20, 10}, // only the median qualifies
		{12, 6},  // fewer than 20: the median is reported
	}
	for _, c := range cases {
		p := tail(seq(c.n), 0.99)
		if p.Value != c.value || p.N != c.n {
			t.Errorf("tail(1..%d) = %+v, want value %v", c.n, p, c.value)
		}
		beyond := c.n - int(p.Value)
		if c.n >= 20 && beyond < minTail {
			t.Errorf("tail(1..%d) leaves %d samples beyond", c.n, beyond)
		}
		if want := p.Value / float64(c.n); math.Abs(p.Q-want) > 1e-12 {
			t.Errorf("tail(1..%d) reports q=%v, want %v", c.n, p.Q, want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{0, 10},    // claim at the very start
		{20, 50},   // runner phase
		{30, 40},   // reporter call inside the phase: no double count
		{45, 60},   // overlaps the phase's end
		{90, 100},  // complete at the very end
		{120, 130}, // outside: ignored
	}
	if got := covered(parent.start, parent.end, children); got != 60 {
		t.Fatalf("covered = %d, want 60", got)
	}
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("self = %d, want 40", got)
	}
	if got := uncoveredBySweep(parent.start, parent.end, children); got != 40 {
		t.Fatalf("sweep = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self without children = %d", got)
	}
}

func TestPacingArithmeticOnASyntheticSchedule(t *testing.T) {
	// 1000 ops at 2000/s and 2000 ops at 4000/s: 0.5s + 0.5s intended,
	// 3000 ops over 1s, so the time-weighted target is 3000/s.
	phases := []phaseTarget{{1000, 2000}, {2000, 4000}}
	if d := intended(phases); d != time.Second {
		t.Fatalf("intended = %v", d)
	}
	if r := targetRate(phases); r != 3000 {
		t.Fatalf("target rate = %v", r)
	}
	wall := 1250 * time.Millisecond // delivered 2400/s
	if a := rateAttained(3000, wall, phases); math.Abs(a-0.8) > 1e-12 {
		t.Fatalf("attained = %v, want 0.8", a)
	}
	if lag := scheduleLag(wall, phases); lag != 250*time.Millisecond {
		t.Fatalf("lag = %v", lag)
	}
	// Two runs of the same schedule aggregate to the same share.
	if a := rateAttained(6000, 2*wall, phases); math.Abs(a-0.8) > 1e-12 {
		t.Fatalf("attained over two runs = %v", a)
	}
	// An unthrottled phase asks for no time and is not part of the target.
	mixed := append(phases, phaseTarget{500, 0})
	if d := intended(mixed); d != time.Second {
		t.Fatalf("intended with unthrottled phase = %v", d)
	}
	if lag := scheduleLag(300*time.Millisecond, []phaseTarget{{10, 0}}); lag != 300*time.Millisecond {
		t.Fatalf("unthrottled lag = %v, want the whole wall time", lag)
	}
}

func TestProcIODiff(t *testing.T) {
	before, err := parseProcIO("rchar: 10\nwchar: 20\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProcIO("rchar: 15\nwchar: 90\nwrite_bytes: 12288\ncancelled_write_bytes: 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if d := after["write_bytes"] - before["write_bytes"]; d != 8192 {
		t.Fatalf("write_bytes delta = %d", d)
	}
	if _, err := parseProcIO("write_bytes: lots\n"); err == nil {
		t.Fatal("garbage value parsed")
	}
}

func TestRegistryDiff(t *testing.T) {
	before, err := parsePrometheus(`# HELP chronos_store_commits_total Commit records.
# TYPE chronos_store_commits_total counter
chronos_store_commits_total 10
chronos_http_requests_total{route="POST /api/v2/jobs/claim",code="200"} 5
chronos_store_commit_batch_seconds{quantile="0.5"} 0.001
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parsePrometheus(`chronos_store_commits_total 52
chronos_http_requests_total{route="POST /api/v2/jobs/claim",code="200"} 9
chronos_http_requests_total{route="POST /api/v2/jobs/claim",code="503"} 2
chronos_http_requests_total{route="POST /api/v2/jobs/{id}/log",code="200"} 4
chronos_store_commit_batch_seconds{quantile="0.5"} 0.002
`)
	if err != nil {
		t.Fatal(err)
	}
	d := after.minus(before)
	if got := d.sum("chronos_store_commits_total"); got != 42 {
		t.Fatalf("commits delta = %v", got)
	}
	all := d.sum("chronos_http_requests_total")
	ok := d.sum("chronos_http_requests_total", `code="2`)
	if all != 10 || ok != 8 || all-ok != 2 {
		t.Fatalf("requests delta all=%v 2xx=%v", all, ok)
	}
	if got := d.sum("chronos_http_requests_total", "jobs/claim", `code="503"`); got != 2 {
		t.Fatalf("claim 503s = %v", got)
	}
	if got := after.sum("chronos_store_commit_batch_seconds", `quantile="0.5"`); got != 0.002 {
		t.Fatalf("quantile = %v", got)
	}
	if _, err := parsePrometheus("chronos_x notanumber\n"); err == nil {
		t.Fatal("garbage value parsed")
	}
}

func TestRouteOp(t *testing.T) {
	cases := map[string]string{
		"/api/v2/jobs/claim":                  opClaim,
		"/api/v2/jobs/job-000000001/progress": opProgress,
		"/api/v2/jobs/job-000000001/log":      opLog,
		"/api/v2/jobs/job-000000001/complete": opComplete,
		"/api/v2/evaluations":                 "",
		"/api/v2/repl/claims":                 "",
		"/api/v2/jobs/job-000000001/logs":     "",
	}
	for path, want := range cases {
		if got := routeOp(path); got != want {
			t.Errorf("routeOp(%q) = %q, want %q", path, got, want)
		}
	}
}

// pacedJobs returns 100ms jobs back to back over [0, 10s), keeping only
// every keep-th job inside the slow seconds.
func pacedJobs(slow map[int64]bool, keep int64) []interval {
	const sec = int64(time.Second)
	var jobs []interval
	for at := int64(0); at < 10*sec; at += sec / 10 {
		if slow[at/sec] && (at/(sec/10))%keep != 0 {
			continue
		}
		jobs = append(jobs, interval{at, at + sec/10})
	}
	return jobs
}

func TestQuietRate(t *testing.T) {
	const sec = int64(time.Second)
	span := time.Duration(slices) * time.Second            // one-second slices
	jobs := pacedJobs(map[int64]bool{2: true, 3: true}, 2) // slices 2, 3 at half rate
	if got := quietRate(jobs, span, mask(0, 4, 5)); math.Abs(got-10) > 1e-9 {
		t.Fatalf("rate over slices 0, 4, 5 = %v, want 10/s", got)
	}
	if got := quietRate(jobs, span, mask(2, 3, 4)); math.Abs(got-5) > 1e-9 {
		t.Fatalf("rate over slices 2, 3, 4 = %v, want the median 5/s", got)
	}
	// A slow slice among fast ones does not move the median.
	if got := quietRate(jobs, span, mask(2, 4, 5)); math.Abs(got-10) > 1e-9 {
		t.Fatalf("rate over slices 2, 4, 5 = %v, want 10/s", got)
	}
	// An even count averages the middle two.
	if got := quietRate(jobs, span, mask(2, 3, 4, 5)); math.Abs(got-7.5) > 1e-9 {
		t.Fatalf("rate over slices 2..5 = %v, want 7.5/s", got)
	}
	// A job spanning every slice counts a share in each by its overlap.
	if got := quietRate([]interval{{0, 4 * sec}}, 4*time.Second, mask(0, 1, 2)); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("one long job: rate = %v, want 0.25/s", got)
	}
}

func TestQuietValuesPoolTheQuietSlices(t *testing.T) {
	span := time.Duration(slices) * time.Second
	var xs []sample
	for k := 0; k < slices; k++ {
		for i := 0; i < 100; i++ {
			xs = append(xs, sample{at: time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond, v: float64(100*k + i)})
		}
	}
	got := quietValues(xs, span, mask(1, 4, 9))
	if len(got) != 300 || got[0] != 100 || got[100] != 400 || got[299] != 999 {
		t.Fatalf("pooled %d values %v...", len(got), got[:3])
	}
	// The tail rule applies to the pooled samples: 300 of them.
	if p := tail(got, 0.99); p.N != 300 || p.Value != 989 {
		t.Fatalf("pooled tail = %+v", p)
	}
	// No sample in a quiet slice: every value counts.
	if got := quietValues(xs[:50], span, mask(3, 4, 5)); len(got) != 50 {
		t.Fatalf("fallback kept %d of 50", len(got))
	}
}

func mask(ks ...int) []bool {
	use := make([]bool, slices)
	for _, k := range ks {
		use[k] = true
	}
	return use
}

func TestQuietSlicesLeaveOutTheMostStolen(t *testing.T) {
	// One-second slices; the host steals these ticks in each, the same
	// ten again and again.
	pattern := []int64{5, 0, 40, 2, 9, 1, 30, 7, 3, 20}
	if slices != 30 || quiet != 10 {
		t.Fatalf("test written for %d slices of which %d quiet", slices, quiet)
	}
	var stolen []int64
	for len(stolen) < slices {
		stolen = append(stolen, pattern...)
	}
	repeat := func(ks ...int) []bool {
		var all []int
		for r := 0; r < slices; r += len(pattern) {
			for _, k := range ks {
				all = append(all, r+k)
			}
		}
		return mask(all...)
	}
	pts := []stealPoint{{0, 1000}}
	total := int64(1000)
	for k, n := range stolen {
		total += n
		pts = append(pts, stealPoint{time.Duration(k+1) * time.Second, total})
	}
	if got := stealAt(pts, 2500*time.Millisecond); got != 1025 {
		t.Fatalf("stealAt(2.5s) = %v, want 1025", got)
	}
	span := time.Duration(slices) * time.Second
	// One CPU: a calm one-second slice loses at most 2 ticks. The
	// quiet-th least stolen slice lost 3 ticks, and every slice that
	// lost no more is kept too.
	if got, want := quietSlices(pts, span, 1), repeat(1, 3, 5, 8); !equalBools(got, want) {
		t.Fatalf("quiet = %v, want %v", got, want)
	}
	// Four CPUs: up to 8 stolen ticks is calm, which adds slices 0 and 7.
	if got, want := quietSlices(pts, span, 4), repeat(0, 1, 3, 5, 7, 8); !equalBools(got, want) {
		t.Fatalf("quiet on 4 CPUs = %v, want %v", got, want)
	}
	// No steal at all: every slice.
	if got := quietSlices([]stealPoint{{0, 7}, {span, 7}}, span, 2); !equalBools(got, repeat(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)) {
		t.Fatalf("quiet without steal = %v", got)
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestClaimGap(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	calls := []call{
		{op: opClaim, hit: true, start: at(0), dur: 2 * time.Millisecond},     // granted at 2
		{op: opClaim, hit: false, start: at(3), dur: time.Millisecond},        // empty: not a grant
		{op: opComplete, start: at(4), dur: time.Millisecond},                 // not a claim
		{op: opClaim, hit: true, start: at(300), dur: 10 * time.Millisecond},  // granted at 310
		{op: opClaim, hit: true, start: at(5), dur: 5 * time.Millisecond},     // granted at 10, out of order
		{op: opClaim, hit: true, start: at(311), dur: 100 * time.Millisecond}, // granted at 411
	}
	if got := claimGap(calls); got != 300*time.Millisecond {
		t.Fatalf("claim gap = %v, want 300ms", got)
	}
	if got := claimGap(calls[:1]); got != 0 {
		t.Fatalf("one grant: gap = %v, want 0", got)
	}
}
