package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	hj "handshakejoin"
	"handshakejoin/internal/workload"
)

// tup is the one payload type every workload pushes on both streams.
// Key is the join key of the equi workloads, A/B the two band
// attributes of the paper's job; Due is the wall instant (nanoseconds
// since the run's epoch) at which the open-loop generator was scheduled
// to push the tuple, so OnOutput can time a result from the later due
// time of its inputs. Due < 0 marks an untimed tuple (fill, verify,
// saturation).
type tup struct {
	Key uint64
	A   int32
	B   float32
	Due int64
}

type (
	item    = hj.Item[tup, tup]
	joiner  = hj.Joiner[tup, tup]
	config  = hj.Config[tup, tup]
	stamped = hj.Stamped[tup]
)

// poolLen is the length of the seed-generated input pool per stream.
// Inputs cycle through it: a run-length array (1 GB at these rates)
// halves throughput and triples its spread through page faults and
// cache misses that belong to the generator, not the engine.
const poolLen = 1 << 18

// latencyLimitNs is the result-latency limit on the hi rate's p99, and
// the generator lateness beyond which a rate counts as unsustainable.
const latencyLimitNs = 25e6

// workloadSpec fixes everything about one workload except the seed.
type workloadSpec struct {
	name string
	why  string
	// callerBatch > 1 pushes through PushRBatch/PushSBatch in batches of
	// that size; 1 pushes per tuple.
	callerBatch int
	// period is the logical timestamp step P: tuple i of either stream
	// carries TS = i*P in every phase.
	period int64
	// window is the per-stream window length in tuples (the Count bound,
	// or Duration/P).
	window int
	// blur is the documented window-boundary blur in tuples
	// (Shards*max(Batch, callerBatch), doc.go); the sandwich check uses
	// twice this.
	blur    int
	ordered bool
	// loRate and hiRate are the open-loop rates in tuples/s/stream.
	loRate, hiRate float64
	// verifyN is the per-stream length of the verified prefix, recoverN
	// the per-stream tuple count of the recovery phase, restores how many
	// engines restore from it one after the other; root.restore_s is their
	// median.
	verifyN, recoverN, restores int
	// gen draws one pool tuple.
	gen func(rnd *workload.Rand) tup
	// pred is the join predicate; keyed says it implies Key equality, so
	// the reference join may index by key.
	pred  func(r, s tup) bool
	keyed bool
	// shape fills the engine shape into a config that already carries
	// Predicate and OnOutput.
	shape func(c *config)
	// durable logs to a real directory in every phase.
	durable bool
}

func keyOf(t tup) uint64 { return t.Key }

func equi(r, s tup) bool { return r.Key == s.Key }

// band is the paper's two-dimensional band predicate
// (workload.BandPredicate) over the A/B attributes.
func band(r, s tup) bool {
	return workload.BandPredicate(workload.RTuple{X: r.A, Y: r.B}, workload.STuple{A: s.A, B: s.B})
}

func uniformKeys(n int) func(*workload.Rand) tup {
	return func(rnd *workload.Rand) tup { return tup{Key: uint64(rnd.Intn(n))} }
}

func ingestShape(c *config) {
	c.Shards, c.Workers = 2, 1
	c.Index = hj.HashIndex
	c.KeyR, c.KeyS = keyOf, keyOf
	c.WindowR, c.WindowS = hj.Window{Count: 4096}, hj.Window{Count: 4096}
	c.Batch = 64
}

var workloads = []workloadSpec{
	{
		name: "ingest_batch",
		why: "admission-bound: O(1) hash near-misses, so router, gates, lane hand-off, expiry scheduling, " +
			"pipeline hop and store insert/remove are the work; scan, sorter and WAL do nothing",
		callerBatch: 256, period: 1000, window: 4096, blur: 2 * 256,
		loRate: 250e3, hiRate: 500e3,
		verifyN: 200000, recoverN: 1 << 20, restores: 7,
		gen: uniformKeys(65536), pred: equi, keyed: true,
		shape: ingestShape,
	},
	{
		name: "band_scan",
		why: "probe-bound: the paper's band join scans ~2100 window entries per tuple in one two-node pipeline; " +
			"no router, no merge, time-based expiry; admission-side changes must predict no change here",
		callerBatch: 1, period: 1000, window: 2048, blur: 64,
		loRate: 5e3, hiRate: 10e3,
		// The two-node scan's throughput differs by a factor of two from
		// one engine to the next (restores of the same 10 k-tuple tail took
		// 0.10–0.18 s, independently), so this workload restores twice as
		// often from half the tail.
		verifyN: 20000, recoverN: 10000, restores: 15,
		gen: func(rnd *workload.Rand) tup {
			return tup{A: int32(1 + rnd.Intn(1500)), B: float32(1 + rnd.Intn(1500))}
		},
		pred: band,
		shape: func(c *config) {
			c.Workers = 2
			c.Index = hj.ScanIndex
			c.WindowR = hj.Window{Duration: 2048 * 1000 * time.Nanosecond}
			c.WindowS = c.WindowR
			c.Batch = 64
		},
	},
	{
		name: "ordered_pertuple",
		why: "output-path and latency-bound: per-tuple admission, adaptive router, probe-table dispatch, " +
			"collector wake-ups, merge, punctuation floor and sorter at Batch 4 (paper Fig. 20), ~1 result/tuple",
		callerBatch: 1, period: 1000, window: 4096, blur: 2 * 4, ordered: true,
		loRate: 50e3, hiRate: 150e3,
		verifyN: 200000, recoverN: 200000, restores: 7,
		gen: uniformKeys(4096), pred: equi, keyed: true,
		shape: func(c *config) {
			c.Shards, c.Workers = 2, 1
			c.Ordered = true
			c.Adapt.Enable = true
			c.Adapt.Migration.Enable = true
			c.Index, c.Class = hj.IndexAuto, hj.PredEqui
			c.KeyR, c.KeyS = keyOf, keyOf
			c.WindowR, c.WindowS = hj.Window{Count: 4096}, hj.Window{Count: 4096}
			c.Batch = 4
		},
	},
	{
		name: "durable_batch",
		why: "ingest_batch with a WAL write beside every admission (SyncEvery 1024, checkpoints between windows): " +
			"sat_tps here over sat_tps on ingest_batch is the logging tax; recovery replays a 1M-tuple WAL tail",
		callerBatch: 256, period: 1000, window: 4096, blur: 2 * 256,
		loRate: 250e3, hiRate: 500e3,
		verifyN: 200000, recoverN: 1 << 20, restores: 7,
		gen: uniformKeys(65536), pred: equi, keyed: true,
		shape:   ingestShape,
		durable: true,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// genPool draws the R and S input pools from the seed into p, which it
// allocates on first use: phase 0 regenerates the pool in place, so
// setup_s times the drawing and not the allocator (fresh 16 MB
// allocations page-fault or not depending on what the scavenger did
// since the last round — 7 to 10 ms against a steady 4).
func (w *workloadSpec) genPool(p *[2][]tup, seed uint64) {
	for side := range p {
		rnd := workload.NewRand(seed*2 + uint64(side) + 1)
		if p[side] == nil {
			p[side] = make([]tup, poolLen)
		}
		for i := range p[side] {
			p[side][i] = w.gen(rnd)
			p[side][i].Due = -1
		}
	}
}

// engineConfig returns the workload's engine configuration delivering
// to out. dir != "" turns durability on under that directory.
func (w *workloadSpec) engineConfig(out func(item), dir string) config {
	c := config{Predicate: w.pred, OnOutput: out}
	w.shape(&c)
	if dir != "" {
		c.Durability = durability(dir)
	}
	return c
}

// durSyncEvery is the group-commit cadence in WAL records. Automatic
// checkpoints stay off: at CheckpointEveryBatches 4096 a ~16 ms
// checkpoint stall touches 1–2 % of a paced window's samples, which
// puts p99 exactly on the knee between "window held a checkpoint" and
// "it did not" (hi_lat_p99_ms spread 12–35 % over ten runs). The harness
// checkpoints between the timed windows instead, which truncates the
// log, and prices a checkpoint on its own as root.checkpoint_ms.
const durSyncEvery = 1024

// The encoders write into per-side scratch buffers: the engine consumes
// the bytes before the side's next call (the encode runs inside that
// side's serial section), so a heap allocation per tuple would be the
// benchmark's cost, not the WAL's.
func durability(dir string) hj.Durability[tup, tup] {
	var scratch [2][24]byte
	enc := func(side int) func(tup) []byte {
		return func(t tup) []byte {
			b := scratch[side][:]
			binary.LittleEndian.PutUint64(b[0:], t.Key)
			binary.LittleEndian.PutUint32(b[8:], uint32(t.A))
			binary.LittleEndian.PutUint32(b[12:], math.Float32bits(t.B))
			binary.LittleEndian.PutUint64(b[16:], uint64(t.Due))
			return b
		}
	}
	dec := func(b []byte) (tup, error) {
		if len(b) != 24 {
			return tup{}, fmt.Errorf("tup: %d bytes", len(b))
		}
		return tup{
			Key: binary.LittleEndian.Uint64(b[0:]),
			A:   int32(binary.LittleEndian.Uint32(b[8:])),
			B:   math.Float32frombits(binary.LittleEndian.Uint32(b[12:])),
			Due: int64(binary.LittleEndian.Uint64(b[16:])),
		}, nil
	}
	return hj.Durability[tup, tup]{
		WALDir:    dir,
		SyncEvery: durSyncEvery,
		EncodeR:   enc(0),
		DecodeR:   dec,
		EncodeS:   enc(1),
		DecodeS:   dec,
	}
}
