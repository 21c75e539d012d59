package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	hj "handshakejoin"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run produces. The driver reads the result
// line (Correct, Attempted, Failed, Metrics); the rest makes a number
// unambiguous about the box and the settings that produced it.
type report struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	Failures  map[string]uint64 `json:"failures"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples holds the sample count behind each percentile metric and
	// the samples beyond it.
	Samples map[string][2]uint64 `json:"samples"`
	// Windows holds the per-round (per-restore for root.restore_s) values
	// behind each metric measured more than once.
	Windows map[string][]float64 `json:"windows"`
	order   []string
}

func (rep *report) set(name string, v float64, unit string) {
	if _, ok := rep.Metrics[name]; !ok {
		rep.order = append(rep.order, name)
	}
	rep.Metrics[name] = metric{Value: v, Unit: unit}
}

type environment struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	LoRate      float64 `json:"lo_rate_per_stream"`
	HiRate      float64 `json:"hi_rate_per_stream"`
	Sleep1msMs  float64 `json:"env.sleep_1ms_actual_ms"`
	CallerBatch int     `json:"caller_batch"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sleepFloorMs measures what time.Sleep(1ms) — the engine's default
// CollectPeriod and heartbeat tick — really costs on this box.
func sleepFloorMs() float64 {
	v := make([]float64, 21)
	for i := range v {
		t0 := time.Now()
		time.Sleep(time.Millisecond)
		v[i] = float64(time.Since(t0)) / 1e6
	}
	return median(v)
}

// options are the knobs of one run. scale shrinks every fixed-size
// piece of work (verify prefix, recovery phase, rounds, ladder rungs)
// and the open-loop rates for the seconds-long reduced run of the test
// suite.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	dir     string // scratch directory for WAL files
	scale   int    // 1 = full size
	spans   string // where a traced run writes its span dump
}

// sandwichSlack is the boundary slack of the correctness sandwich in
// tuples: twice the documented blur, plus an allowance because the blur
// doc.go documents (Shards*max(Batch, callerBatch)) is where a lane's
// Batch-th tuple arrives on average — under hash routing the distance
// is geometric, and at Batch 4 twice the mean was exceeded about once
// in 10 M tuples.
func (w *workloadSpec) sandwichSlack() int { return 2*w.blur + 64 }

// rounds is how many fresh engines a run measures. The relative phase
// of the collector and heartbeat timers is fixed when an engine starts
// and shifts Ordered-mode latency by a third between otherwise
// identical engines, so every round builds its own engine and runs one
// window of each timed phase on it; a metric is the median over the
// rounds.
const rounds = 8

// Shares of a round's seconds.
const (
	warmShare = 0.04
	satShare  = 0.28
	loShare   = 0.28
	hiShare   = 0.40
)

// runWorkload runs every phase of one workload and assembles the report.
func runWorkload(w *workloadSpec, o options) (*report, error) {
	spec := *w
	spec.verifyN /= o.scale
	spec.recoverN /= o.scale
	spec.restores = max(1, spec.restores/o.scale)
	spec.loRate /= float64(o.scale)
	spec.hiRate /= float64(o.scale)
	w = &spec
	rep := &report{
		Workload: w.name,
		Traced:   o.traced,
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Seed: o.seed, Seconds: o.seconds,
			LoRate: w.loRate, HiRate: w.hiRate, Sleep1msMs: sleepFloorMs(), CallerBatch: w.callerBatch,
		},
		Failures: map[string]uint64{},
		Metrics:  map[string]metric{},
		Samples:  map[string][2]uint64{},
		Windows:  map[string][]float64{},
	}
	r := newRunner(w, o.seed, o.dir)
	var err error
	if o.traced {
		r.tr = newTracer(r.epoch, w.callerBatch)
		err = r.runTraced(rep, o)
	} else {
		err = r.runEndToEnd(rep, o)
	}
	if err != nil {
		return nil, err
	}
	rep.Failures["push_errors"] = r.errs
	rep.Failures["ordered_regressions"] = r.regress.Load()
	rep.Attempted += r.pushed
	for _, n := range rep.Failures {
		rep.Failed += n
	}
	rep.FailFrac = float64(rep.Failed) / float64(rep.Attempted)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// account folds one phase's sandwich verdict into the report.
func (rep *report) account(phase string, v verdict) {
	rep.Attempted += v.expected
	rep.Failures[phase+".pairs_missing"] += v.missing
	rep.Failures[phase+".pairs_extra"] += v.extra
	rep.Failures[phase+".pairs_duplicate"] += v.dup
}

// roundStat is what one round — one engine — measured.
type roundStat struct {
	setup       setupResult
	sat, lo, hi windowStat
	closeMs     float64
	// Engine counters over the saturation window, and gauges sampled
	// after the hi window.
	satStats, endStats hj.Stats
	allocs, allocBytes uint64
	// pushNs and pushTuples are the time the traced push spans of the
	// saturation window cover, and the tuples they pushed.
	pushNs     int64
	pushTuples uint64
	floorLagNs int64
	scrapeMs   float64
}

// round runs phase 0 and one window of each timed phase on a fresh
// engine, then closes it and checks its books.
func (r *runner) round(rep *report, seconds float64, obs hj.ObsConfig) (roundStat, error) {
	var rs roundStat
	var err error
	window := func(share float64) time.Duration { return time.Duration(seconds * share * float64(time.Second)) }
	r.tr.enter(spanPhase, "setup")
	rs.setup, err = r.setup(obs)
	r.tr.leave()
	if err != nil {
		return rs, err
	}
	r.tr.enter(spanPhase, "sat")
	r.saturate(window(warmShare))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := r.eng.Stats()
	ns0, n0 := r.tr.pushTotals()
	rs.sat = r.saturate(window(satShare))
	ns1, n1 := r.tr.pushTotals()
	rs.pushNs, rs.pushTuples = ns1-ns0, (n1-n0)*uint64(r.w.callerBatch)
	rs.satStats = statsDelta(r.eng.Stats(), s0)
	runtime.ReadMemStats(&m1)
	rs.allocs, rs.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.tr.leave()
	if addr := r.eng.ObsAddr(); addr != "" {
		if rs.scrapeMs, err = r.scrape(addr); err != nil {
			return rs, err
		}
	}
	for _, p := range []struct {
		name string
		rate float64
		dur  time.Duration
		into *windowStat
	}{{"lo", r.w.loRate, window(loShare), &rs.lo}, {"hi", r.w.hiRate, window(hiShare), &rs.hi}} {
		if r.w.durable {
			// Between windows, untimed: truncates the log a window wrote.
			if err := r.checkpoint(); err != nil {
				return rs, err
			}
		}
		r.tr.enter(spanPhase, p.name)
		*p.into = r.pace(p.rate, p.dur)
		r.tr.leave()
		if p.into.unsustainable() {
			rep.Failures["unsustainable_"+p.name] += p.into.tuples
		}
	}
	t0 := r.tr.begin()
	snap := r.eng.StatsSnapshot()
	r.tr.end(spanSnapshot, 0, t0)
	rs.floorLagNs = snap.FloorLagNs

	eng, n := r.eng, r.next
	start := time.Now()
	if err := r.close(); err != nil {
		return rs, err
	}
	rs.closeMs = float64(time.Since(start)) / 1e6
	rs.endStats = eng.Stats()
	if got := rs.endStats.RIn + rs.endStats.SIn; got != 2*n {
		rep.Failures["admission_mismatch"] += absDiff(got, 2*n)
	}
	rep.Failures["pending_expiries"] += rs.endStats.PendingExpiries
	return rs, nil
}

func statsDelta(a, b hj.Stats) hj.Stats {
	a.RIn -= b.RIn
	a.SIn -= b.SIn
	a.Results -= b.Results
	a.Punctuations -= b.Punctuations
	a.Comparisons -= b.Comparisons
	return a
}

func roundValues(rs []roundStat, f func(*roundStat) float64) []float64 {
	v := make([]float64, len(rs))
	for i := range rs {
		v[i] = f(&rs[i])
	}
	return v
}

// overRounds reports the median of f over the rounds and keeps the
// per-round values.
func (rep *report) overRounds(name, unit string, rs []roundStat, f func(*roundStat) float64) {
	v := roundValues(rs, f)
	rep.Windows[name] = v
	rep.set(name, median(v), unit)
}

// latencyMetrics reports the p50/p99 of result latency of one paced
// phase from the rounds' values, with the sample count behind one
// round's value and the samples beyond it. Per-round percentiles rather
// than a percentile of the pooled samples: on a shared box one round in
// eight meets a host stall of tens of milliseconds, which a pooled p99
// reports (pooled p99 spread 74–99 % against 7–18 % on the same ten
// runs). p50 is the median of the rounds. p99 is their mean without the
// two largest: a round's p99 sits in one of two modes about equally
// often (5 or 8 ms on ordered_pertuple, the timer phase its engine
// started in), so a median of eight flips between them from run to run
// (lo_lat_p99_ms spread 13–17 % against 10 % on the same runs), while a
// stall only ever adds latency, so dropping the two largest discards up
// to two stalled rounds.
func (rep *report) latencyMetrics(prefix string, rs []roundStat, win func(*roundStat) *windowStat) {
	for _, q := range []struct {
		name string
		q    float64
		over func([]float64) float64
	}{{"p50", 0.5, median}, {"p99", 0.99, lowerMean}} {
		name := fmt.Sprintf("%s_lat_%s_ms", prefix, q.name)
		v := roundValues(rs, func(r *roundStat) float64 { return quantileMs(win(r).lat, q.q) })
		rep.Windows[name] = v
		rep.set(name, q.over(v), "ms")
		rep.Samples[name] = [2]uint64{
			uint64(median(roundValues(rs, func(r *roundStat) float64 { return float64(win(r).lat.count()) }))),
			uint64(median(roundValues(rs, func(r *roundStat) float64 {
				_, beyond := win(r).lat.quantile(q.q)
				return float64(beyond)
			}))),
		}
	}
}

func loWindow(r *roundStat) *windowStat { return &r.lo }
func hiWindow(r *roundStat) *windowStat { return &r.hi }

func tps(w *windowStat) float64 { return float64(w.tuples) / w.seconds }

func cpuUsPerTuple(w *windowStat) float64 { return float64(w.cpuNs) / 1e3 / float64(w.tuples) }

// endToEndMetricsFrom fills the end-to-end metrics the rounds carry.
func (rep *report) endToEndMetricsFrom(rs []roundStat) {
	var setups []float64
	for i := range rs {
		setups = append(setups, rs[i].setup.seconds[:]...)
	}
	rep.Windows["setup_s"] = setups
	rep.set("setup_s", median(setups), "s")
	rep.overRounds("win_bytes_per_tuple", "B", rs, func(r *roundStat) float64 { return r.setup.winBytes })
	rep.overRounds("sat_tps", "tuples/s", rs, func(r *roundStat) float64 { return tps(&r.sat) })
	// Not on the untraced result line (see README, "demoted"); the full
	// report and -compare still show it.
	rep.overRounds("root.cpu_us_per_tuple", "us", rs, func(r *roundStat) float64 { return cpuUsPerTuple(&r.sat) })
	rep.latencyMetrics("lo", rs, loWindow)
	rep.latencyMetrics("hi", rs, hiWindow)
}

func (r *runner) runRounds(rep *report, obs hj.ObsConfig, n int, seconds float64) ([]roundStat, error) {
	rs := make([]roundStat, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.round(rep, seconds/float64(n), obs)
		if err != nil {
			return nil, err
		}
		rs = append(rs, s)
	}
	return rs, nil
}

// recoverPhase runs the recovery phase.
func (r *runner) recoverPhase(rep *report) (recovery, error) {
	r.tr.enter(spanPhase, "recover")
	rec, err := r.recover(r.w.sandwichSlack())
	r.tr.leave()
	if err == nil {
		rep.account("recover", rec.verdict)
		// Not on the untraced result line (see README, "demoted").
		rep.Windows["root.restore_s"] = rec.restoreS
		rep.set("root.restore_s", median(rec.restoreS), "s")
	}
	return rec, err
}

func (r *runner) verifyPhase(rep *report) error {
	r.tr.enter(spanPhase, "verify")
	v, err := r.verify(r.w.sandwichSlack())
	r.tr.leave()
	if err == nil {
		rep.account("verify", v)
	}
	return err
}

func (r *runner) runEndToEnd(rep *report, o options) error {
	if err := r.verifyPhase(rep); err != nil {
		return err
	}
	rs, err := r.runRounds(rep, hj.ObsConfig{}, max(1, rounds/o.scale), o.seconds)
	if err != nil {
		return err
	}
	rep.endToEndMetricsFrom(rs)
	_, err = r.recoverPhase(rep)
	return err
}
