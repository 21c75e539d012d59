package adapt

import (
	"sort"
	"sync"
	"time"

	"handshakejoin/internal/probe"
)

// Probe exposes the race-safe load signals of one shard lane to the
// sampler. (Per-node comparison counters are deliberately absent: even
// now that they are atomics, they lag the pushers by the in-flight
// batches, while the control loop needs signals that lead — routed
// load and queue depth.)
type Probe interface {
	// Results returns the number of results the lane has assembled.
	Results() uint64
	// QueueDepth returns the messages in flight inside the lane's
	// pipeline — the back-pressure signal of a saturated shard.
	QueueDepth() int
}

// LaneSample is one shard's load sample over a collect period.
type LaneSample struct {
	// Routed counts tuples routed to the shard during the period.
	Routed uint64
	// Results is the lane's cumulative assembled-result count.
	Results uint64
	// QueueDepth is the in-flight message count at sample time.
	QueueDepth int
	// LastAdvance is the latest ingress timestamp routed to the shard
	// (the lane's watermark; a stale value marks an idle shard).
	LastAdvance int64
}

// Config tunes a Controller.
type Config struct {
	// SamplePeriod is the control-loop cadence.
	SamplePeriod time.Duration
	// SkewThreshold is the max/mean shard-load ratio above which the
	// planner starts moving groups.
	SkewThreshold float64
	// MaxMovesPerCycle bounds how many group moves one cycle may
	// propose.
	MaxMovesPerCycle int
	// MinCycleTuples is the minimum number of tuples a period must
	// route before its sample is considered significant enough to plan
	// from.
	MinCycleTuples uint64
	// StaleMoveCycles is how many cycles a proposed move may stay
	// unsafe before it is cancelled. It must comfortably exceed the
	// window residence time of a group's tuples in control cycles —
	// cancelling before the group's window could possibly empty
	// livelocks the plan-propose-cancel loop. Default 64.
	StaleMoveCycles uint64

	// EngageThreshold is the smoothed imbalance at which planning
	// engages. Defaults to SkewThreshold (the historical behavior);
	// setting it higher makes the controller slower to wake while
	// SkewThreshold keeps governing the per-cycle Plan threshold.
	EngageThreshold float64
	// DisengageRatio positions the disengage watermark between 1
	// (perfect balance) and EngageThreshold: planning goes quiet when
	// the smoothed imbalance falls below
	// 1 + (EngageThreshold-1)*DisengageRatio. Default 0.5; must be in
	// (0, 1]. A ratio of 1 collapses the hysteresis band.
	DisengageRatio float64

	// Migrator, when set, executes a freezing state migration of one
	// group to a target shard under the given tuple budget, returning
	// the number of tuples moved and whether the migration ran (false:
	// refused, e.g. over budget) — the all-or-nothing escalation path.
	// When BeginHandoff/AdvanceHandoff are set they take precedence and
	// escalation is incremental instead. Escalation is disabled when
	// no executor is set or MigrateBudget is 0.
	Migrator func(group uint32, to int, budget int) (tuples int, ok bool)

	// BeginHandoff commits an incremental migration of one group: the
	// routing table swaps to the target shard and the data plane starts
	// probe-only double-reads to the old one. It returns false when the
	// handoff cannot start (group already in handoff, engine closing);
	// the controller then backs the group off for MigrateAfterCycles.
	BeginHandoff func(group uint32, to int) bool
	// AdvanceHandoff moves one bounded slice (at most maxTuples window
	// tuples) of the group's state to its new shard. done tells the
	// scheduler to stop advancing this handoff; completed additionally
	// reports that it actually finished (the old shard is empty of the
	// group) rather than being dropped by the engine (e.g. shutdown) —
	// only completed handoffs count as migrations. The controller
	// advances the active handoff every cycle under the MigrateBudget
	// until done.
	AdvanceHandoff func(group uint32, maxTuples int) (moved int, done, completed bool)
	// SliceTuples bounds one slice hop of an incremental migration —
	// the longest ingress freeze a hop may cost, in window tuples (the
	// per-cycle total is still MigrateBudget). Default 1024.
	SliceTuples int

	// MinGapRatio is a noise floor on the migration gap check: a
	// candidate migrates only when the donor/receiver load gap exceeds
	// MinGapRatio times the mean shard load (in addition to exceeding
	// the group's own load). Zero disables the floor. Under heavy skew
	// the steady-state sample keeps jittering around the unsplittable
	// hot groups; without a floor that noise reads as an actionable gap
	// and migrations churn forever.
	MinGapRatio float64
	// MaxMigrationsPerSec rate-limits migration starts (handoff begins
	// and freezing migrations alike) with a burst of one. Zero means
	// unlimited. This is the churn cap: skew that survives the noise
	// floor can still only trigger a bounded number of moves per
	// second.
	MaxMigrationsPerSec float64
	// MigrateBudget is the per-cycle tuple budget for migrations; a
	// single move may finish the budget but never start beyond it, so
	// ingress stalls stay bounded.
	MigrateBudget int
	// MigrateAfterCycles is how long a pending move must have waited
	// for its drain-based cut-over before it escalates to migration.
	// It must be well below StaleMoveCycles, or intents are cancelled
	// before they can escalate. Default 4.
	MigrateAfterCycles uint64
	// MinMigrateLoad is the per-cycle load EWMA above which a stalled
	// group is considered never-draining (its window always holds
	// fresh tuples) and worth a migration; colder stalled groups drain
	// eventually on their own. Default 1.
	MinMigrateLoad float64

	// Trace, when set, receives control-plane trace events from the
	// loop itself: ("rebalance_applied", proposed, applied) whenever a
	// cycle applies at least one drain cut-over. Called under the
	// controller mutex on cold cycles only; nil disables.
	Trace func(kind string, a, b int64)

	// ProbeTable, when set, receives the router's per-group live window
	// cardinality every control cycle — the control-plane statistics
	// feed of the adaptive probe engine (its crossover model uses the
	// cardinality to ceiling chain-length estimates for groups
	// currently scanning). Nil disables the feed.
	ProbeTable *probe.Table
}

// Controller runs the sample → plan → cut-over loop against a Router.
// Step may be driven by the background Run loop or called directly
// (the engine's Rebalance method does); both paths serialize on an
// internal mutex.
type Controller struct {
	r   *Router
	cfg Config

	probes []Probe
	lastTS func(lane int) int64 // per-lane routed-timestamp watermark

	mu       sync.Mutex
	prevLoad []uint64
	curLoad  []uint64 // scratch, reused across cycles
	delta    []uint64
	live     []uint64  // residual window footprint per group
	planLoad []uint64  // what the planner samples; see refreshPlanLoad
	gEwma    []float64 // smoothed per-group per-cycle load
	extra    []uint64
	sample   []LaneSample

	// migDeferred maps a group whose migration was refused (over
	// budget, or a handoff that could not start) to the cycle at which
	// it may be retried, so a too-big group does not pay the
	// freeze-and-count probe every cycle.
	migDeferred map[uint32]uint64
	migrations  uint64

	// Active incremental handoff (at most one at a time): the slice
	// scheduler advances it every cycle under the budget until done.
	hActive bool
	hGroup  uint32

	// Migration-start token bucket (MaxMigrationsPerSec), burst one.
	migTokens float64
	migLast   time.Time

	// Plan backoff: when full staleness horizons pass with proposals
	// but no applied cut-over, the skew is beyond what safe moves can
	// fix (an immovable hot group) and planning every cycle is wasted
	// work. The interval doubles up to a cap and resets on the first
	// applied move.
	cycle        uint64
	planInterval uint64
	misses       uint64

	// Hysteresis: planning engages when the smoothed shard imbalance
	// exceeds SkewThreshold, then keeps balancing down to a lower
	// watermark before going quiet. Without it the loop converges to
	// exactly the threshold and oscillates there, planning every cycle
	// forever.
	imbEwma  float64
	planning bool
}

// NewController returns a Controller over the router and one probe per
// shard. lastTS supplies the per-lane ingress watermark and may be nil.
func NewController(r *Router, probes []Probe, lastTS func(lane int) int64, cfg Config) *Controller {
	if cfg.SkewThreshold < 1 {
		cfg.SkewThreshold = 1.25
	}
	if cfg.MaxMovesPerCycle < 1 {
		cfg.MaxMovesPerCycle = r.Shards()
	}
	if cfg.MinCycleTuples == 0 {
		cfg.MinCycleTuples = 128
	}
	if cfg.StaleMoveCycles == 0 {
		cfg.StaleMoveCycles = 64
	}
	if cfg.EngageThreshold < 1 {
		cfg.EngageThreshold = cfg.SkewThreshold
	}
	if cfg.DisengageRatio <= 0 || cfg.DisengageRatio > 1 {
		cfg.DisengageRatio = 0.5
	}
	if cfg.MigrateAfterCycles == 0 {
		cfg.MigrateAfterCycles = 4
	}
	if cfg.MinMigrateLoad <= 0 {
		cfg.MinMigrateLoad = 1
	}
	if cfg.SliceTuples <= 0 {
		cfg.SliceTuples = 1024
	}
	return &Controller{r: r, cfg: cfg, probes: probes, lastTS: lastTS}
}

// Step runs one control cycle: sample per-group load deltas and lane
// probes, plan moves if the period saw enough traffic and skew exceeds
// the threshold, register them, and attempt every pending cut-over.
// It returns the number of moves proposed and applied this cycle.
func (c *Controller) Step() (proposed, applied int) {
	c.mu.Lock()
	defer c.mu.Unlock()

	groups := c.r.Groups()
	shards := c.r.Shards()
	if c.curLoad == nil {
		c.curLoad = make([]uint64, groups)
		c.delta = make([]uint64, groups)
		c.live = make([]uint64, groups)
		c.planLoad = make([]uint64, groups)
		c.gEwma = make([]float64, groups)
		c.extra = make([]uint64, shards)
		c.sample = make([]LaneSample, shards)
		c.migDeferred = map[uint32]uint64{}
	}
	c.r.SampleLoadsInto(c.curLoad)
	var total uint64
	for i, l := range c.curLoad {
		if c.prevLoad != nil {
			c.delta[i] = l - c.prevLoad[i]
		} else {
			c.delta[i] = l
		}
		total += c.delta[i]
	}
	if c.migrationEnabled() {
		// Per-group EWMAs exist to prove a group never drains; the
		// O(groups) float pass is only paid when migration can use it.
		for i, d := range c.delta {
			c.gEwma[i] = 0.8*c.gEwma[i] + 0.2*float64(d)
		}
	}
	c.prevLoad, c.curLoad = c.curLoad, c.prevLoad
	if c.curLoad == nil {
		c.curLoad = make([]uint64, groups)
	}

	assign := c.r.AssignmentView() // immutable snapshot; never mutated here
	for s := range c.sample {
		c.sample[s] = LaneSample{}
	}
	for g, s := range assign {
		c.sample[s].Routed += c.delta[g]
	}
	for s := 0; s < shards; s++ {
		c.extra[s] = 0
		if s < len(c.probes) && c.probes[s] != nil {
			c.sample[s].Results = c.probes[s].Results()
			c.sample[s].QueueDepth = c.probes[s].QueueDepth()
			c.extra[s] = uint64(c.sample[s].QueueDepth)
		}
		if c.lastTS != nil {
			c.sample[s].LastAdvance = c.lastTS(s)
		}
	}

	if c.cfg.ProbeTable != nil {
		c.r.FeedProbe(c.cfg.ProbeTable, c.live)
	}

	c.r.AdvanceCycle(c.cfg.StaleMoveCycles)
	c.cycle++
	if c.planInterval == 0 {
		c.planInterval = 1
	}
	if total >= c.cfg.MinCycleTuples {
		var maxLoad, sumLoad uint64
		for s := 0; s < shards; s++ {
			l := c.sample[s].Routed + c.extra[s]
			sumLoad += l
			if l > maxLoad {
				maxLoad = l
			}
		}
		imb := float64(maxLoad) * float64(shards) / float64(sumLoad)
		if c.imbEwma == 0 {
			c.imbEwma = imb
		}
		c.imbEwma = 0.8*c.imbEwma + 0.2*imb
		high := c.cfg.EngageThreshold
		low := 1 + (high-1)*c.cfg.DisengageRatio
		if !c.planning && c.imbEwma > high {
			c.planning = true
		} else if c.planning && c.imbEwma < low {
			c.planning = false
		}
		if c.planning && c.cycle%c.planInterval == 0 {
			pending := c.r.PendingSnapshot()
			inFlight := func(g uint32) bool { _, ok := pending[g]; return ok }
			planThresh := 1 + (c.cfg.SkewThreshold-1)*c.cfg.DisengageRatio
			c.refreshPlanLoad()
			moves := Plan(assign, c.planLoad, c.extra, shards, planThresh, c.cfg.MaxMovesPerCycle, inFlight)
			proposed = c.r.Propose(moves)
		}
	}
	applied = c.r.TryApply()
	if applied > 0 && c.cfg.Trace != nil {
		c.cfg.Trace("rebalance_applied", int64(proposed), int64(applied))
	}
	migrated := c.migrate(applied)
	switch {
	case applied > 0 || migrated > 0:
		// Halve rather than reset: during real convergence applies come
		// every cycle and the interval stays at 1, while a trickle of
		// applies against a mostly-immovable skew does not re-arm
		// full-rate planning.
		c.planInterval = max(1, c.planInterval/2)
		c.misses = 0
	case proposed > 0 || c.r.PendingMoves() > 0:
		c.misses++
		if c.misses >= c.cfg.StaleMoveCycles {
			c.misses = 0
			if c.planInterval < 64 {
				c.planInterval *= 2
			}
		}
	}
	return proposed, applied
}

// refreshPlanLoad rebuilds the planner's load sample: this cycle's
// traffic deltas, with a cold group's residual window footprint
// standing in where the delta is zero. Residuals substitute rather
// than add, so a hot group's signal stays the pure arrival rate (the
// dynamics the drain planner converged with), while a group that went
// cold still parking tuples on a hot shard stays visible — without
// that, only groups with fresh deltas are ever planned, and a stalled
// group relies solely on the expiry hook to leave an overloaded
// shard. O(groups), so it runs only on cycles that actually plan or
// migrate. Callers hold c.mu.
func (c *Controller) refreshPlanLoad() {
	c.r.LiveLoadInto(c.live)
	for i, d := range c.delta {
		if d > 0 {
			c.planLoad[i] = d
		} else {
			c.planLoad[i] = c.live[i]
		}
	}
}

// migrate escalates long-stalled pending moves to state migrations,
// hottest group first, spending at most MigrateBudget tuples this
// cycle. A refused migration (over budget) is deferred for
// MigrateAfterCycles cycles so a too-big group does not pay the
// freeze-and-count probe every cycle. Callers hold c.mu.
//
// A migration freezes both ingress sides and quiesces two pipelines —
// milliseconds of stall — so unlike the free drain cut-over it is a
// last resort, and the scan itself must stay off the steady-state
// path:
//
//   - It only runs on cycles where the drain path applied nothing, and
//     only every MigrateAfterCycles-th cycle: while drains make
//     progress, or between paced scans, migration costs zero (under a
//     churning mild skew the pending set holds thousands of in-flight
//     drain moves, and even enumerating them every cycle measurably
//     stalls ingress).
//   - Candidates are filtered by load EWMA and per-group cooldown
//     before any sorting, then re-validated against the current
//     cycle's load sample and executed only if moving them still
//     strictly shrinks the donor/receiver gap. Without re-validation,
//     moves planned several cycles ago (before earlier migrations
//     rebalanced the table) ping-pong hot groups between shards
//     forever, and the steady state freezes ingress every cycle.
//   - Successful migrations start the same per-group cooldown as
//     refusals, so a group settles before it can be judged
//     hot-and-misplaced again.
func (c *Controller) migrate(appliedThisCycle int) int {
	if !c.migrationEnabled() || c.cfg.MigrateBudget <= 0 {
		return 0
	}
	incremental := c.cfg.BeginHandoff != nil && c.cfg.AdvanceHandoff != nil
	// An in-flight handoff advances every cycle, before anything else
	// and regardless of drain-path progress: the double-read window it
	// holds open costs one extra probe per arrival of the group, so
	// finishing in-flight work beats starting new work.
	if incremental && c.hActive {
		return c.advanceActive()
	}
	if appliedThisCycle > 0 || c.cycle%c.cfg.MigrateAfterCycles != 0 {
		return 0
	}
	cands := c.r.MigrationCandidates(c.cfg.MigrateAfterCycles)
	hot := cands[:0]
	for _, mv := range cands {
		if c.gEwma[mv.Group] < c.cfg.MinMigrateLoad {
			continue
		}
		if next, ok := c.migDeferred[mv.Group]; ok && c.cycle < next {
			continue
		}
		hot = append(hot, mv)
	}
	if len(hot) == 0 {
		return 0
	}
	// Hottest first: these are the groups the drain path can least
	// help. Ties keep the candidates' deterministic group order.
	sort.SliceStable(hot, func(i, j int) bool {
		return c.gEwma[hot[i].Group] > c.gEwma[hot[j].Group]
	})
	c.refreshPlanLoad()
	assign := c.r.AssignmentView()
	shards := c.r.Shards()
	shardLoad := make([]uint64, shards)
	var totalLoad uint64
	for g, s := range assign {
		shardLoad[s] += c.planLoad[g]
	}
	for _, l := range shardLoad {
		totalLoad += l
	}
	// Noise floor: gaps below this fraction of the mean shard load are
	// sample jitter, not actionable skew.
	noiseFloor := uint64(c.cfg.MinGapRatio * float64(totalLoad) / float64(shards))
	budget := c.cfg.MigrateBudget
	migrated := 0
	for _, mv := range hot {
		if budget <= 0 {
			break
		}
		from := int(assign[mv.Group])
		gl := c.planLoad[mv.Group]
		if mv.To == from || mv.To < 0 || mv.To >= shards ||
			shardLoad[from] <= shardLoad[mv.To] ||
			shardLoad[from]-shardLoad[mv.To] <= gl ||
			shardLoad[from]-shardLoad[mv.To] < noiseFloor {
			// The intent went stale: the move no longer shrinks the
			// donor/receiver gap (or the gap is below the noise
			// floor). Leave it to the drain path (or to stale-move
			// cancellation).
			continue
		}
		if !c.migTokenAvailable() {
			break // rate limiter: no further starts this cycle
		}
		if incremental {
			if !c.cfg.BeginHandoff(mv.Group, mv.To) {
				// A refused begin moved nothing: back the group off
				// without burning the start token.
				c.migDeferred[mv.Group] = c.cycle + c.cfg.MigrateAfterCycles
				continue
			}
			c.consumeMigToken()
			c.hActive, c.hGroup = true, mv.Group
			// One handoff at a time; spend this cycle's budget on it.
			return 1 + c.advanceActive()
		}
		n, ok := c.cfg.Migrator(mv.Group, mv.To, budget)
		c.migDeferred[mv.Group] = c.cycle + c.cfg.MigrateAfterCycles
		if ok {
			c.consumeMigToken()
			budget -= n
			migrated++
			shardLoad[from] -= gl
			shardLoad[mv.To] += gl
		}
	}
	c.migrations += uint64(migrated)
	return migrated
}

// advanceActive moves slices of the active handoff until the cycle's
// tuple budget is spent or the handoff finishes, returning the number
// of hops that made progress. Callers hold c.mu.
func (c *Controller) advanceActive() int {
	budget := c.cfg.MigrateBudget
	progress := 0
	for budget > 0 {
		slice := c.cfg.SliceTuples
		if slice > budget {
			slice = budget
		}
		n, done, completed := c.cfg.AdvanceHandoff(c.hGroup, slice)
		budget -= n
		if n > 0 {
			progress++
		}
		if done {
			c.hActive = false
			// The same cooldown as a freezing migration either way:
			// the group settles before it can be judged
			// hot-and-misplaced again.
			c.migDeferred[c.hGroup] = c.cycle + c.cfg.MigrateAfterCycles
			if !completed {
				// Dropped by the engine (shutdown, handoff gone):
				// not a migration.
				return progress
			}
			c.migrations++
			if progress == 0 {
				progress = 1 // an empty final hop still finishes the move
			}
			return progress
		}
		if n == 0 {
			return progress // no forward progress; retry next cycle
		}
	}
	return progress
}

// migrationEnabled reports whether any migration executor is wired.
func (c *Controller) migrationEnabled() bool {
	return c.cfg.Migrator != nil || (c.cfg.BeginHandoff != nil && c.cfg.AdvanceHandoff != nil)
}

// migTokenAvailable refills and checks the MaxMigrationsPerSec token
// bucket (burst one) without consuming: a refused start must not burn
// the token, or repeated refusals would throttle the effective start
// rate toward zero. Callers hold c.mu and call consumeMigToken once a
// start actually succeeds.
func (c *Controller) migTokenAvailable() bool {
	rate := c.cfg.MaxMigrationsPerSec
	if rate <= 0 {
		return true
	}
	now := time.Now()
	if c.migLast.IsZero() {
		c.migTokens = 1
	} else {
		c.migTokens += now.Sub(c.migLast).Seconds() * rate
		if c.migTokens > 1 {
			c.migTokens = 1
		}
	}
	c.migLast = now
	return c.migTokens >= 1
}

// consumeMigToken spends the start token for one successful migration
// start. Callers hold c.mu.
func (c *Controller) consumeMigToken() {
	if c.cfg.MaxMigrationsPerSec > 0 {
		c.migTokens--
	}
}

// Migrations returns the number of state migrations this controller
// has executed.
func (c *Controller) Migrations() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migrations
}

// LastSample returns the per-shard samples of the most recent cycle.
func (c *Controller) LastSample() []LaneSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]LaneSample(nil), c.sample...)
}

// Pause waits for a running control cycle to finish and keeps the next
// one from starting until Resume. A driver about to overwrite router
// state wholesale (Restore) brackets the overwrite with the pair, so no
// cycle samples counters that are being copied over. The caller must
// not hold any lock a cycle's migration callbacks take.
func (c *Controller) Pause() { c.mu.Lock() }

// Resume lets control cycles run again after Pause.
func (c *Controller) Resume() { c.mu.Unlock() }

// Run loops Step every SamplePeriod until stop is closed. It is meant
// to run on its own goroutine.
func (c *Controller) Run(stop <-chan struct{}) {
	period := c.cfg.SamplePeriod
	if period <= 0 {
		period = 2 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.Step()
		}
	}
}
