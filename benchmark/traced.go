package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	hj "handshakejoin"
	"handshakejoin/internal/metrics"
)

// Shares of a traced run's seconds: untraced rounds give the baseline
// the tracing overhead is priced against, traced rounds the root spans,
// and the layer ladder takes what its rungs need.
const (
	baselineShare  = 0.15
	tracedShare    = 0.35
	baselineRounds = 2
	tracedRounds   = 3
)

// scrape times one GET of the engine's /metrics endpoint.
func (r *runner) scrape(addr string) (float64, error) {
	t0 := r.tr.begin()
	start := time.Now()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, fmt.Errorf("scrape: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	ms := float64(time.Since(start)) / 1e6
	r.tr.end(spanScrape, 0, t0)
	if err != nil {
		return 0, fmt.Errorf("scrape: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scrape: status %s", resp.Status)
	}
	return ms, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced run: spans around every public-API call,
// Config.Obs on, then the layer ladder. Its end-to-end numbers are
// reported under trace.* only; the gated ones come from untraced runs.
func (r *runner) runTraced(rep *report, o options) error {
	if err := r.verifyPhase(rep); err != nil {
		return err
	}
	// Traced and untraced rounds alternate, so that a host that speeds up
	// or slows down over the run does so on both sides of
	// trace.overhead_pct.
	nBase, nTraced := max(1, baselineRounds/o.scale), max(1, tracedRounds/o.scale)
	baseSeconds := o.seconds * baselineShare / float64(o.scale*nBase)
	tracedSeconds := o.seconds * tracedShare / float64(o.scale*nTraced)
	var base, rs []roundStat
	for len(rs) < nTraced || len(base) < nBase {
		if len(rs) < nTraced {
			s, err := r.round(rep, tracedSeconds, hj.ObsConfig{Addr: "127.0.0.1:0", EventBuffer: 1024})
			if err != nil {
				return err
			}
			rs = append(rs, s)
		}
		if len(base) < nBase {
			tr := r.tr
			r.tr = nil
			s, err := r.round(rep, baseSeconds, hj.ObsConfig{})
			r.tr = tr
			if err != nil {
				return err
			}
			base = append(base, s)
		}
	}
	satTuples := func(s *roundStat) float64 { return float64(s.sat.tuples) }
	over := func(name, unit string, f func(*roundStat) float64) { rep.overRounds(name, unit, rs, f) }

	over("trace.sat_tps", "tuples/s", func(s *roundStat) float64 { return tps(&s.sat) })
	untraced := median(roundValues(base, func(s *roundStat) float64 { return tps(&s.sat) }))
	rep.set("trace.untraced_sat_tps", untraced, "tuples/s")
	rep.set("trace.overhead_pct", 100*(untraced-rep.Metrics["trace.sat_tps"].Value)/untraced, "%")
	over("trace.cpu_us_per_tuple", "us", func(s *roundStat) float64 { return cpuUsPerTuple(&s.sat) })
	rep.overRounds("root.cpu_us_per_tuple", "us", base, func(s *roundStat) float64 { return cpuUsPerTuple(&s.sat) })

	over("root.push_ns_per_tuple", "ns", func(s *roundStat) float64 { return ratio(float64(s.pushNs), float64(s.pushTuples)) })
	over("root.push_block_p99_us", "us", func(s *roundStat) float64 { return quantileMs(s.hi.block, 0.99) * 1e3 })
	over("root.gen_late_p99_us", "us", func(s *roundStat) float64 { return quantileMs(s.hi.late, 0.99) * 1e3 })
	over("root.hi_slo_miss_frac", "frac", func(s *roundStat) float64 {
		return ratio(float64(s.hi.lat.countAbove(latencyLimitNs)), float64(s.hi.lat.count()))
	})
	over("root.lat_p999_ms", "ms", func(s *roundStat) float64 { return quantileMs(s.hi.lat, 0.999) })
	over("root.close_drain_ms", "ms", func(s *roundStat) float64 { return s.closeMs })
	over("root.allocs_per_tuple", "count", func(s *roundStat) float64 { return float64(s.allocs) / satTuples(s) })
	over("root.alloc_bytes_per_tuple", "B", func(s *roundStat) float64 { return float64(s.allocBytes) / satTuples(s) })
	over("root.results_per_tuple", "count", func(s *roundStat) float64 {
		return ratio(float64(s.satStats.Results), float64(s.satStats.RIn+s.satStats.SIn))
	})
	over("root.comparisons_per_tuple", "count", func(s *roundStat) float64 {
		return ratio(float64(s.satStats.Comparisons), float64(s.satStats.RIn+s.satStats.SIn))
	})
	over("root.probe_hit_ratio", "ratio", func(s *roundStat) float64 {
		return ratio(float64(s.satStats.Results), float64(s.satStats.Comparisons))
	})
	over("root.punct_per_s", "1/s", func(s *roundStat) float64 { return float64(s.satStats.Punctuations) / s.sat.seconds })
	over("root.floor_lag_tuples", "count", func(s *roundStat) float64 {
		return float64(max(s.floorLagNs, 0)) / float64(r.w.period)
	})
	over("root.max_sort_buffer", "count", func(s *roundStat) float64 { return float64(s.endStats.MaxSortBuffer) })
	over("root.shard_imbalance", "ratio", func(s *roundStat) float64 {
		if len(s.endStats.ShardIngress) == 0 {
			return 1 // single pipeline
		}
		return metrics.Imbalance(s.endStats.ShardIngress)
	})
	over("obs.scrape_ms", "ms", func(s *roundStat) float64 { return s.scrapeMs })
	rep.set("env.sleep_1ms_actual_ms", rep.Env.Sleep1msMs, "ms")

	rec, err := r.recoverPhase(rep)
	if err != nil {
		return err
	}
	rep.set("root.checkpoint_ms", rec.checkpointMs, "ms")
	rep.set("root.restore_replay_tps", float64(rec.tailTuples)/median(rec.restoreS), "tuples/s")

	ld := &ladder{r: r, rep: rep, scale: o.scale}
	r.tr.enter(spanPhase, "ladder")
	layersNs, err := ld.run()
	r.tr.leave()
	if err != nil {
		return err
	}
	cpu := rep.Metrics["trace.cpu_us_per_tuple"].Value
	rep.set("trace.layers_sum_us_per_tuple", layersNs/1e3, "us")
	rep.set("trace.unexplained_pct", 100*(cpu-layersNs/1e3)/cpu, "%")
	if o.spans != "" {
		return r.tr.write(o.spans, map[string]any{"workload": rep.Workload, "env": rep.Env})
	}
	return nil
}
