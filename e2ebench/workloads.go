package main

// The four workloads. Each names the SUT family its jobs run, how many
// agents drive it, and the job parameters; schedule mirrors the
// schedule the agent will derive from those parameters, so the
// benchmark knows each job's requested volume and target rates.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/mongoagent"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/tsagent"
	"chronos/internal/tssim"
	"chronos/internal/workload"
)

// family is one SUT family: its registration and its runner factory.
type family struct {
	name       string
	definition func() ([]params.Definition, []core.DiagramSpec)
	factory    func() agent.Runner
}

var (
	mongoFamily = &family{
		name:       mongoagent.SystemName,
		definition: mongoagent.SystemDefinition,
		// Pure in-memory engine costs: no simulated disk sleeps, so the
		// SUT either costs nothing (churn) or saturates a core (drive).
		factory: mongoagent.NewFactory(mongosim.Options{WriteLatency: mongosim.NoIO}),
	}
	tsFamily = &family{
		name:       tsagent.SystemName,
		definition: tsagent.SystemDefinition,
		factory:    tsagent.NewFactory(tssim.Options{}),
	}
)

// workloadSpec describes one workload.
type workloadSpec struct {
	name     string
	family   *family
	agents   int
	follower bool // claims go through a delegating follower
	// batch is the number of jobs per evaluation; the feeder schedules
	// another evaluation whenever fewer than batch jobs wait unclaimed.
	batch int
	// rate is the nominal job rate (jobs/s) that sizes a pass: --seconds
	// at this rate, so a pass lasts about --seconds at the speed the
	// program had when the benchmark was written, and every commit is
	// measured on the same work.
	rate     float64
	threads  int // SUT worker threads per job
	settings func(seeds []params.Value) map[string][]params.Value
	schedule func(seed int64) (workload.Schedule, error)
}

// pacedSchedule is the paced workload's phase DSL: constant-rate phases
// of appends beside window reads, the middle one growing the series set.
// A job holds 100 ms of schedule, so a run makes enough claims and
// reports for their medians to hold still from run to run.
const pacedSchedule = "phase=steady,ops=75,mix=update:80+read:20,dist=latest,rate=constant:2000;" +
	"phase=grow,ops=150,mix=update:60+insert:20+read:20,dist=latest,rate=constant:4000,grow=1;" +
	"phase=settle,ops=75,mix=update:80+read:20,dist=latest,rate=constant:3000"

// Job shapes.
const (
	tinyRecords = 10
	tinyOps     = 10
	driveRecs   = 20000
	driveOps    = 40000
	tsSeries    = 1000
	tsPoints    = 32
)

var workloads = map[string]*workloadSpec{
	"churn":  {name: "churn", family: mongoFamily, agents: 2, batch: 64, rate: 300, threads: 1, settings: mongoSettings(tinyRecords, tinyOps), schedule: mongoSchedule(tinyRecords, tinyOps)},
	"fanout": {name: "fanout", family: mongoFamily, agents: 2, follower: true, batch: 64, rate: 230, threads: 1, settings: mongoSettings(tinyRecords, tinyOps), schedule: mongoSchedule(tinyRecords, tinyOps)},
	"drive":  {name: "drive", family: mongoFamily, agents: 2, batch: 2, rate: 0.55, threads: 1, settings: mongoSettings(driveRecs, driveOps), schedule: mongoSchedule(driveRecs, driveOps)},
	"paced":  {name: "paced", family: tsFamily, agents: 1, batch: 1, rate: 6.5, threads: 2, settings: pacedSettings, schedule: pacedScheduleFor},
}

// jobs is the number of jobs a pass of seconds schedules: whole
// evaluations, at least two per agent.
func (w *workloadSpec) jobs(seconds float64) int64 {
	n := int64(math.Ceil(seconds * w.rate / float64(w.batch)))
	n = max(n, int64(math.Ceil(float64(2*w.agents)/float64(w.batch))))
	return n * int64(w.batch)
}

// workloadNames lists the workloads in a stable order.
func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// mongoSettings: wiredTiger, one thread, 50:50 read/update, zipfian.
func mongoSettings(records, ops int64) func([]params.Value) map[string][]params.Value {
	return func(seeds []params.Value) map[string][]params.Value {
		return map[string][]params.Value{
			"engine":       {params.String_(mongosim.EngineWiredTiger)},
			"threads":      {params.Int(1)},
			"records":      {params.Int(records)},
			"operations":   {params.Int(ops)},
			"mix":          {params.Ratio(50, 50)},
			"distribution": {params.String_("zipfian")},
			"seed":         seeds,
		}
	}
}

// mongoSchedule is the one-phase schedule mongoagent runs for
// mongoSettings.
func mongoSchedule(records, ops int64) func(int64) (workload.Schedule, error) {
	return func(seed int64) (workload.Schedule, error) {
		cfg := workload.Config{
			Name:           "chronos-demo",
			RecordCount:    records,
			OperationCount: ops,
			Mix:            workload.MixFromRatio(50, 50),
			Distribution:   "zipfian",
			Seed:           seed,
		}.WithDefaults()
		return cfg.Schedule(), cfg.Validate()
	}
}

func pacedSettings(seeds []params.Value) map[string][]params.Value {
	return map[string][]params.Value{
		"series":   {params.Int(tsSeries)},
		"points":   {params.Int(tsPoints)},
		"threads":  {params.Int(2)},
		"schedule": {params.String_(pacedSchedule)},
		"seed":     seeds,
	}
}

// pacedScheduleFor is the schedule tsagent runs for pacedSettings.
func pacedScheduleFor(seed int64) (workload.Schedule, error) {
	phases, err := workload.ParseSchedulePhases(pacedSchedule)
	if err != nil {
		return workload.Schedule{}, err
	}
	s := workload.Schedule{Name: "chronos-tsdemo", RecordCount: tsSeries, Seed: seed, Phases: phases}.WithDefaults()
	return s, s.Validate()
}

// targets lists a schedule's per-phase volume and constant target rate.
func targets(s workload.Schedule) ([]phaseTarget, error) {
	out := make([]phaseTarget, len(s.Phases))
	for i, p := range s.Phases {
		if p.Duration > 0 {
			return nil, fmt.Errorf("phase %q is duration-bounded", p.Name)
		}
		if p.Rate.Throttled() && p.Rate.Shape != workload.RateConstant && p.Rate.Shape != "" {
			return nil, fmt.Errorf("phase %q: only constant rates have a fixed intended duration", p.Name)
		}
		out[i] = phaseTarget{ops: p.OperationCount, rate: p.Rate.StartOPS}
	}
	return out, nil
}
