package main

// The benchmark's own arithmetic: the percentile rule, quiet slices,
// span self time, pacing fidelity, and the counter diffs taken from
// /proc/self/io and from a metrics registry's Prometheus text.
// Everything here is pure so stats_test.go can pin it on synthetic
// inputs.

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// pctl is one reported percentile: the value, the quantile it was read
// at (nearest rank) and the sample count behind it.
type pctl struct {
	Value float64
	Q     float64
	N     int
}

// median is the nearest-rank median (the lower middle for even counts).
func median(xs []float64) pctl {
	return rank(xs, (len(xs)+1)/2)
}

// tail reads the highest percentile at or below want that still has at
// least minTail samples beyond it. With fewer than 2*minTail samples no
// percentile above the median qualifies, and the median is reported.
func tail(xs []float64, want float64) pctl {
	n := len(xs)
	k := int(math.Ceil(want * float64(n)))
	k = min(k, n-minTail)
	k = max(k, (n+1)/2)
	return rank(xs, k)
}

// rank returns the k-th smallest sample (1-based) of xs.
func rank(xs []float64, k int) pctl {
	n := len(xs)
	if n == 0 {
		return pctl{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k = min(max(k, 1), n)
	return pctl{Value: s[k-1], Q: float64(k) / float64(n), N: n}
}

// mean is the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// slices is how many equal time slices a pass's window is cut into. On
// a shared machine the host steals CPU in episodes of a second to a few
// seconds; the rate, latency and per-job metrics are read over the quiet
// slices, the ones in which the host stole the least CPU (see
// quietSlices), so episodes do not decide a run.
const slices = 30

// quiet is how many of the slices, at least, the metrics are read over.
const quiet = 10

// calmShare is the share of a slice's CPU time the host may steal with
// the slice still counted as quiet.
const calmShare = 0.02

// ticksPerSecond is the kernel's USER_HZ, the unit of /proc/stat.
const ticksPerSecond = 100

// stealPoint is the machine's cumulative stolen CPU ticks at an offset
// into the pass's window.
type stealPoint struct {
	at    time.Duration
	ticks int64
}

// quietSlices marks the quiet slices of a window of length span on a
// machine of cpus CPUs: the quiet slices in which the host stole the
// fewest CPU ticks, every slice that ties with them, and every slice in
// which the host stole at most calmShare of the CPU time, so a calm host
// leaves all slices in. points must be sorted by offset.
func quietSlices(points []stealPoint, span time.Duration, cpus int) []bool {
	stolen := make([]float64, slices)
	for k := range stolen {
		lo, hi := sliceBounds(k, span)
		stolen[k] = stealAt(points, hi) - stealAt(points, lo)
	}
	sorted := append([]float64(nil), stolen...)
	sort.Float64s(sorted)
	use := make([]bool, slices)
	for k, st := range stolen {
		lo, hi := sliceBounds(k, span)
		calm := calmShare * (hi - lo).Seconds() * ticksPerSecond * float64(cpus)
		use[k] = st <= max(sorted[quiet-1], calm)
	}
	return use
}

// stealAt interpolates the cumulative steal counter at offset at.
func stealAt(points []stealPoint, at time.Duration) float64 {
	if len(points) == 0 {
		return 0
	}
	i := sort.Search(len(points), func(i int) bool { return points[i].at >= at })
	switch {
	case i == 0:
		return float64(points[0].ticks)
	case i == len(points):
		return float64(points[len(points)-1].ticks)
	}
	a, b := points[i-1], points[i]
	f := float64(at-a.at) / float64(b.at-a.at)
	return float64(a.ticks) + f*float64(b.ticks-a.ticks)
}

// sliceBounds returns slice k's extent within a window of length span.
func sliceBounds(k int, span time.Duration) (time.Duration, time.Duration) {
	w := span / slices
	hi := time.Duration(k+1) * w
	if k == slices-1 {
		hi = span
	}
	return time.Duration(k) * w, hi
}

// sliceOf maps an offset into a window of length span onto its slice.
func sliceOf(at, span time.Duration) int {
	if span <= 0 {
		return 0
	}
	k := int(float64(at) / float64(span) * slices)
	return min(max(k, 0), slices-1)
}

// sample is one observation at an offset into the window.
type sample struct {
	at time.Duration
	v  float64
}

// quietValues returns the values of the samples that fall in the slices
// in use, or all values when none does.
func quietValues(xs []sample, span time.Duration, use []bool) []float64 {
	var kept, all []float64
	for _, x := range xs {
		all = append(all, x.v)
		if use[sliceOf(x.at, span)] {
			kept = append(kept, x.v)
		}
	}
	if len(kept) == 0 {
		return all
	}
	return kept
}

// quietRate is the median, over the slices in use, of each slice's
// jobs completed per second, each job counted in proportion to the share
// of its run (claim to ack) that falls in the slice, so long jobs spread
// smoothly instead of landing whole in the slice of their ack. A median
// rather than the mean over the slices: a stall or an episode of stolen
// CPU that covers a few slices does not decide the run.
func quietRate(jobs []interval, span time.Duration, use []bool) float64 {
	var rates []float64
	for k := range use {
		if !use[k] {
			continue
		}
		lo, hi := sliceBounds(k, span)
		if hi <= lo {
			continue
		}
		var done float64
		for _, j := range jobs {
			if d := j.end - j.start; d > 0 {
				done += float64(covered(int64(lo), int64(hi), []interval{j})) / float64(d)
			}
		}
		rates = append(rates, done/(hi-lo).Seconds())
	}
	if len(rates) == 0 {
		return 0
	}
	return medianMid(rates)
}

// medianMid is the median that averages the two middle values of an
// even count, so a rate read over few slices is not one slice's.
func medianMid(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a span's extent in nanoseconds since the trace base.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent.start, parent.end, children)
}

// uncoveredBySweep measures the same quantity as selfTime by a second
// route: it cuts [lo, hi] at every child boundary and sums the
// elementary segments no child overlaps. The trace check requires the
// two to agree.
func uncoveredBySweep(lo, hi int64, children []interval) int64 {
	cuts := []int64{lo, hi}
	for _, c := range children {
		if c.start > lo && c.start < hi {
			cuts = append(cuts, c.start)
		}
		if c.end > lo && c.end < hi {
			cuts = append(cuts, c.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var free int64
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if a == b {
			continue
		}
		busy := false
		for _, c := range children {
			if c.start <= a && c.end >= b {
				busy = true
				break
			}
		}
		if !busy {
			free += b - a
		}
	}
	return free
}

// phaseTarget is one schedule phase's volume and constant target rate
// (0 = unthrottled).
type phaseTarget struct {
	ops  int64
	rate float64
}

// intended is how long the schedule should take if every operation ran
// exactly on time: the sum of ops/rate over throttled phases. An
// unthrottled phase asks for no time; all its operations are due at once.
func intended(phases []phaseTarget) time.Duration {
	var s float64
	for _, p := range phases {
		if p.rate > 0 {
			s += float64(p.ops) / p.rate
		}
	}
	return time.Duration(s * float64(time.Second))
}

// targetRate is the time-weighted target rate of the throttled phases.
func targetRate(phases []phaseTarget) float64 {
	var ops int64
	for _, p := range phases {
		if p.rate > 0 {
			ops += p.ops
		}
	}
	d := intended(phases)
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}

// rateAttained is the delivered rate (ops over Execute wall time) as a
// share of the time-weighted target rate. ops and wall may sum over
// several runs of the same schedule.
func rateAttained(ops int64, wall time.Duration, phases []phaseTarget) float64 {
	t := targetRate(phases)
	if t <= 0 || wall <= 0 {
		return 0
	}
	return float64(ops) / wall.Seconds() / t
}

// scheduleLag is how far one run of the schedule finished behind its
// intended end.
func scheduleLag(wall time.Duration, phases []phaseTarget) time.Duration {
	return wall - intended(phases)
}

// parseProcIO reads the "key: value" counters of /proc/self/io.
func parseProcIO(text string) (map[string]int64, error) {
	out := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("proc io %q: %w", sc.Text(), err)
		}
		out[strings.TrimSpace(k)] = n
	}
	return out, sc.Err()
}

// scrape is one Prometheus text exposition: series (name plus label
// set, exactly as printed) to value.
type scrape map[string]float64

// parsePrometheus reads the text exposition format, skipping comments.
func parsePrometheus(text string) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prometheus line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// minus returns the per-series change from before to s; series absent
// before count from zero.
func (s scrape) minus(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the named family whose label text contains
// all of the given fragments.
func (s scrape) sum(name string, fragments ...string) float64 {
	var t float64
	for k, v := range s {
		fam, labels, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}
