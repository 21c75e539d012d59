package handshakejoin

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"handshakejoin/internal/kang"
	"handshakejoin/internal/stream"
)

// TestObsSnapshotRace is the soundness proof for the live observability
// layer: several scraper goroutines hammer StatsSnapshot and the event
// drain while batch pushers feed both sides and a migrator keeps an
// incremental handoff open for most of the run. The race detector
// watches every read; mid-run snapshots must satisfy the conservation
// invariant (tuples routed to shards never exceed tuples admitted), and
// after Close the counters must be exact and the result multiset must
// match a sequential Kang reference.
func TestObsSnapshotRace(t *testing.T) {
	const (
		pushers  = 3
		batches  = 50
		batchSz  = 16
		keys     = 16
		scrapers = 4
		perSide  = batches * batchSz
		totalR   = pushers * perSide
		totalS   = pushers * perSide
		shards   = 4
	)
	var mu sync.Mutex
	seen := make(map[[2]int]int)
	cfg := Config[cidR, cidS]{
		Workers:     2,
		Shards:      shards,
		Predicate:   func(r cidR, s cidS) bool { return r.Key == s.Key },
		WindowR:     Window{Count: totalR},
		WindowS:     Window{Count: totalS},
		Batch:       8,
		MaxInFlight: 4,
		Punctuate:   true,
		KeyR:        func(r cidR) uint64 { return r.Key },
		KeyS:        func(s cidS) uint64 { return s.Key },
		Adapt: AdaptConfig{
			Enable:       true,
			SamplePeriod: -1, // the explicit migrator goroutine is the only mover
			KeyGroups:    64,
			Migration:    MigrationConfig{SliceTuples: 32},
		},
		Obs: ObsConfig{EventBuffer: 512},
		OnOutput: func(it Item[cidR, cidS]) {
			if it.Punct {
				return
			}
			mu.Lock()
			seen[[2]int{it.Result.Pair.R.Payload.ID, it.Result.Pair.S.Payload.ID}]++
			mu.Unlock()
		},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := eng.(*ShardedEngine[cidR, cidS])

	stop := make(chan struct{})
	var bgWg sync.WaitGroup

	// Scrapers: snapshot + drain in a tight loop, checking the mid-run
	// invariants a monitoring agent would rely on.
	for i := 0; i < scrapers; i++ {
		bgWg.Add(1)
		go func() {
			defer bgWg.Done()
			var since uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := eng.StatsSnapshot()
				var routed uint64
				for _, n := range snap.ShardIngress {
					routed += n
				}
				// Shard attribution happens after the seq counters under
				// the same side lock, so a snapshot can never have seen
				// more routed tuples than admitted ones.
				if routed > snap.RIn+snap.SIn {
					t.Errorf("snapshot routed %d tuples but admitted only %d", routed, snap.RIn+snap.SIn)
					return
				}
				if len(snap.LiveWindowR) != shards || len(snap.LiveWindowS) != shards || len(snap.ExpiryDepth) != shards {
					t.Errorf("snapshot gauge lengths = (%d, %d, %d), want %d", len(snap.LiveWindowR), len(snap.LiveWindowS), len(snap.ExpiryDepth), shards)
					return
				}
				for _, ev := range eng.Events(since) {
					if ev.Kind == "" {
						t.Error("drained event with empty kind")
						return
					}
					since = ev.Seq + 1
				}
				// A tight unthrottled loop would starve the lanes on the
				// gauges' internal locks; a short period still yields
				// thousands of scrapes per run.
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	// Migrator: walk the key-groups, holding an incremental handoff open
	// while pushes flow, then settle it before moving on (so no handoff
	// is left open at Close).
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		groups := se.KeyGroups()
		move := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := uint32(move % groups)
			to := (se.router.Partitioner().ShardOfGroup(g) + 1) % se.Shards()
			if err := se.BeginMigration(g, to); err == nil {
				for {
					_, done, err := se.AdvanceMigration(g)
					if err != nil || done {
						break
					}
					time.Sleep(50 * time.Microsecond) // pushes and scrapes flow mid-handoff
				}
			}
			move++
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rb := make([]Stamped[cidR], batchSz)
			for b := 0; b < batches; b++ {
				for i := range rb {
					id := p*perSide + b*batchSz + i
					rb[i] = Stamped[cidR]{Payload: cidR{Key: uint64(id % keys), ID: id}}
				}
				if err := eng.PushRBatch(rb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sb := make([]Stamped[cidS], batchSz)
			for b := 0; b < batches; b++ {
				for i := range sb {
					id := p*perSide + b*batchSz + i
					sb[i] = Stamped[cidS]{Payload: cidS{Key: uint64((id * 7) % keys), ID: id}}
				}
				if err := eng.PushSBatch(sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bgWg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Post-Close the counters are exact: every admitted tuple was routed.
	st := eng.Stats()
	if st.RIn != totalR || st.SIn != totalS {
		t.Fatalf("Stats in = (%d, %d), want (%d, %d)", st.RIn, st.SIn, totalR, totalS)
	}
	var routed uint64
	for _, n := range st.ShardIngress {
		routed += n
	}
	if routed != st.RIn+st.SIn {
		t.Fatalf("shards ingested %d tuples, engine admitted %d", routed, st.RIn+st.SIn)
	}

	// The result multiset must match a sequential Kang reference: the
	// windows hold everything and all tuples share one timestamp, so the
	// reference is every key-matching pair exactly once, independent of
	// the interleaving and of the handoffs.
	want := make(map[[2]int]int)
	oracle := kang.New(
		func(r cidR, s cidS) bool { return r.Key == s.Key },
		func(p stream.Pair[cidR, cidS]) {
			want[[2]int{p.R.Payload.ID, p.S.Payload.ID}]++
		})
	for id := 0; id < totalR; id++ {
		oracle.ProcessR(stream.Tuple[cidR]{Seq: uint64(id), Payload: cidR{Key: uint64(id % keys), ID: id}})
	}
	for id := 0; id < totalS; id++ {
		oracle.ProcessS(stream.Tuple[cidS]{Seq: uint64(id), Payload: cidS{Key: uint64((id * 7) % keys), ID: id}})
	}
	if len(seen) != len(want) {
		t.Fatalf("engine emitted %d distinct pairs, oracle %d", len(seen), len(want))
	}
	for pair, n := range seen {
		if want[pair] != n {
			t.Fatalf("pair %v emitted %d times, oracle says %d", pair, n, want[pair])
		}
	}
	if st.Results != uint64(len(want)) {
		t.Fatalf("Stats.Results = %d, oracle emitted %d", st.Results, len(want))
	}

	// The migrator ran real handoffs, so the trace must hold their
	// events (the ring keeps the newest 512; settles are the last kind
	// emitted per handoff, so at least the recent ones survive).
	kinds := make(map[string]int)
	for _, ev := range eng.Events(0) {
		kinds[ev.Kind]++
	}
	if kinds["handoff_begin"] == 0 || kinds["handoff_settle"] == 0 {
		t.Fatalf("trace ring missing handoff events: %v", kinds)
	}
}

// TestObsEndpoint drives the HTTP export surface end to end on an
// ephemeral port: /metrics must be well-formed Prometheus text
// exposition carrying the engine's counters, /events must be decodable
// JSONL, and the server must go away with the engine.
func TestObsEndpoint(t *testing.T) {
	cfg := Config[cidR, cidS]{
		Workers:   2,
		Shards:    2,
		Predicate: func(r cidR, s cidS) bool { return r.Key == s.Key },
		WindowR:   Window{Count: 1 << 16},
		WindowS:   Window{Count: 1 << 16},
		Punctuate: true,
		KeyR:      func(r cidR) uint64 { return r.Key },
		KeyS:      func(s cidS) uint64 { return s.Key },
		Adapt: AdaptConfig{
			Enable:       true,
			SamplePeriod: -1, // no control loop; the test migrates explicitly
			KeyGroups:    16,
			Migration:    MigrationConfig{SliceTuples: 64},
		},
		Obs:      ObsConfig{Addr: "127.0.0.1:0"},
		OnOutput: func(Item[cidR, cidS]) {},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	addr := eng.ObsAddr()
	if addr == "" {
		t.Fatal("ObsAddr empty with Obs.Addr set")
	}
	for i := 0; i < 64; i++ {
		if err := eng.PushR(cidR{Key: uint64(i % 8), ID: i}, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := eng.PushS(cidS{Key: uint64(i % 8), ID: i}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}

	body := httpGet(t, "http://"+addr+"/metrics")
	checkExposition(t, body)
	if !strings.Contains(body, `llhj_ingress_total{side="r"} 64`) {
		t.Fatalf("/metrics missing R ingress counter:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE llhj_output_latency_ns histogram") {
		t.Fatalf("/metrics missing latency histogram:\n%s", body)
	}

	// Trigger at least one trace event via a handoff, then drain it over
	// HTTP as JSONL.
	se := eng.(*ShardedEngine[cidR, cidS])
	g := se.router.GroupOf(3)
	to := (se.router.Partitioner().ShardOfGroup(g) + 1) % se.Shards()
	if err := se.BeginMigration(g, to); err != nil {
		t.Fatal(err)
	}
	for {
		_, done, err := se.AdvanceMigration(g)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	events := httpGet(t, "http://"+addr+"/events")
	var kinds []string
	sc := bufio.NewScanner(strings.NewReader(events))
	for sc.Scan() {
		var ev TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL event %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Kind)
	}
	found := false
	for _, k := range kinds {
		if k == "handoff_begin" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/events missing handoff_begin, got %v", kinds)
	}

	if body := httpGet(t, "http://"+addr+"/debug/vars"); !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars missing memstats:\n%.200s", body)
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after Close")
	}
}

// TestObsSingleEngine covers the single-pipeline Engine's observability
// surface: snapshot gauges have one shard, the floor proxy moves, and
// disabling Obs keeps the accessors inert.
func TestObsSingleEngine(t *testing.T) {
	var results int
	cfg := Config[int, int]{
		Workers:   2,
		Predicate: func(r, s int) bool { return r == s },
		WindowR:   Window{Count: 1024},
		WindowS:   Window{Count: 1024},
		Punctuate: true,
		Obs:       ObsConfig{EventBuffer: 64},
		OnOutput: func(it Item[int, int]) {
			if !it.Punct {
				results++
			}
		},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := eng.PushR(i%10, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := eng.PushS(i%10, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.StatsSnapshot()
	if snap.RIn != 100 || snap.SIn != 100 {
		t.Fatalf("snapshot in = (%d, %d), want (100, 100)", snap.RIn, snap.SIn)
	}
	if len(snap.LiveWindowR) != 1 || len(snap.ExpiryDepth) != 1 {
		t.Fatalf("single engine must report one shard, got %d/%d", len(snap.LiveWindowR), len(snap.ExpiryDepth))
	}
	if eng.ObsAddr() != "" {
		t.Fatalf("ObsAddr = %q without a server", eng.ObsAddr())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	post := eng.StatsSnapshot()
	if post.FloorLagNs < 0 {
		t.Fatalf("FloorLagNs = %d after pushes, want >= 0", post.FloorLagNs)
	}

	// With Obs zero every accessor is inert.
	cfg.Obs = ObsConfig{}
	eng2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if evs := eng2.Events(0); evs != nil {
		t.Fatalf("Events = %v with tracing disabled", evs)
	}
	if eng2.ObsAddr() != "" {
		t.Fatal("ObsAddr non-empty with Obs disabled")
	}
	if snap := eng2.StatsSnapshot(); snap.NextEventSeq != 0 {
		t.Fatalf("NextEventSeq = %d with tracing disabled", snap.NextEventSeq)
	}
}

// httpGet fetches a URL with retries (the server goroutine may still be
// coming up) and returns the body.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := http.Get(url)
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %s", url, resp.Status)
			}
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("GET %s: %v", url, lastErr)
	return ""
}

// checkExposition validates the shape of a Prometheus text page: every
// non-comment line is "name[{labels}] value" with a numeric value.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("exposition line without value: %q", line)
		}
		name := line[:sp]
		if !strings.HasPrefix(name, "llhj_") {
			t.Fatalf("unexpected metric name in %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
	}
	if lines == 0 {
		t.Fatal("empty exposition")
	}
}

// engineFDs counts this process's open file descriptors, skipping the
// test on platforms without /proc.
func engineFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	return len(ents)
}

// TestObsServerClosedWithEngine creates engines that serve the export
// endpoint — alternating single-lane and sharded — scrapes each once,
// closes them, and asserts that neither goroutines nor file descriptors
// accumulate: Joiner.Close must tear down the HTTP listener, its
// connections, and the serving goroutine along with the pipeline.
func TestObsServerClosedWithEngine(t *testing.T) {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	mk := func(shards int) Joiner[cidR, cidS] {
		t.Helper()
		eng, err := New(Config[cidR, cidS]{
			Workers:   2,
			Shards:    shards,
			Predicate: func(r cidR, s cidS) bool { return r.Key == s.Key },
			WindowR:   Window{Count: 256},
			WindowS:   Window{Count: 256},
			KeyR:      func(r cidR) uint64 { return r.Key },
			KeyS:      func(s cidS) uint64 { return s.Key },
			Obs:       ObsConfig{Addr: "127.0.0.1:0", EventBuffer: 64},
			OnOutput:  func(Item[cidR, cidS]) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	// One warm-up round so lazily initialized runtime state (resolver,
	// pollers) does not count as a leak.
	if err := mk(2).Close(); err != nil {
		t.Fatal(err)
	}

	goroutines0 := runtime.NumGoroutine()
	fds0 := engineFDs(t)
	for i := 0; i < 12; i++ {
		eng := mk(1 + i%2)
		for j := 0; j < 8; j++ {
			if err := eng.PushR(cidR{Key: uint64(j), ID: j}, int64(j)); err != nil {
				t.Fatal(err)
			}
			if err := eng.PushS(cidS{Key: uint64(j), ID: j}, int64(j)); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := client.Get("http://" + eng.ObsAddr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	client.CloseIdleConnections()

	// Connections close asynchronously on the client side; allow the
	// counts a moment to settle before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		goroutines := runtime.NumGoroutine()
		fds := engineFDs(t)
		if goroutines <= goroutines0+2 && fds <= fds0+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after 12 create/close cycles: goroutines %d -> %d, fds %d -> %d",
				goroutines0, goroutines, fds0, fds)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestObsFloorHolderNamesThePinningShard: with traffic on one shard only
// and no heartbeats, the other shard never punctuates and the merged
// floor cannot form. The floor-holder gauge must name that shard — the
// answer to "which shard is Ordered output waiting for" — in the
// snapshot and on /metrics.
func TestObsFloorHolderNamesThePinningShard(t *testing.T) {
	cfg := Config[cidR, cidS]{
		Workers:   1,
		Shards:    2,
		Predicate: func(r cidR, s cidS) bool { return r.Key == s.Key },
		WindowR:   Window{Count: 1 << 16},
		WindowS:   Window{Count: 1 << 16},
		Batch:     1,
		Ordered:   true,
		KeyR:      func(r cidR) uint64 { return r.Key },
		KeyS:      func(s cidS) uint64 { return s.Key },
		Adapt:     AdaptConfig{DisableHeartbeat: true},
		Obs:       ObsConfig{Addr: "127.0.0.1:0"},
		OnOutput:  func(Item[cidR, cidS]) {},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	se := eng.(*ShardedEngine[cidR, cidS])
	// A key of shard 0: before anything punctuates the holder reads 0
	// (the lowest index among equals), so only a real answer is 1.
	const busy, silent = 0, 1
	key := uint64(0)
	for se.router.Partitioner().ShardOfGroup(se.router.GroupOf(key)) != busy {
		key++
	}
	for i := 0; i < 32; i++ {
		if err := eng.PushR(cidR{Key: key, ID: i}, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := eng.PushS(cidS{Key: key, ID: i}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The busy shard's collector runs on its own goroutine; wait for its
	// punctuation to reach the merge.
	for deadline := time.Now().Add(10 * time.Second); eng.StatsSnapshot().FloorHolder != silent; {
		if time.Now().After(deadline) {
			t.Fatalf("FloorHolder = %d, want the silent shard %d", eng.StatsSnapshot().FloorHolder, silent)
		}
		runtime.Gosched()
	}
	snap := eng.StatsSnapshot()
	if snap.CollectorPasses[silent] > 1 {
		t.Fatalf("silent shard ran %d collector passes, want at most its first", snap.CollectorPasses[silent])
	}
	body := httpGet(t, "http://"+eng.ObsAddr()+"/metrics")
	checkExposition(t, body)
	for _, want := range []string{
		fmt.Sprintf("llhj_floor_holder %d", silent),
		fmt.Sprintf(`llhj_collector_passes_total{shard="%d"}`, busy),
		fmt.Sprintf(`llhj_collector_wakeups_total{shard="%d"}`, busy),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestIdleEngineRunsNoCollectorPasses: once a sharded engine with
// heartbeats on has caught its floor up with ingress, nothing in it
// collects on a timer — over 50 ms no shard runs a single collector
// pass — and Close still returns, leaving no goroutine behind.
func TestIdleEngineRunsNoCollectorPasses(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := Config[cidR, cidS]{
		Workers:   2,
		Shards:    4,
		Predicate: func(r cidR, s cidS) bool { return r.Key == s.Key },
		WindowR:   Window{Count: 1 << 16},
		WindowS:   Window{Count: 1 << 16},
		Batch:     4,
		Ordered:   true,
		KeyR:      func(r cidR) uint64 { return r.Key },
		KeyS:      func(s cidS) uint64 { return s.Key },
		Adapt:     AdaptConfig{HeartbeatPeriod: 200 * time.Microsecond},
		OnOutput:  func(Item[cidR, cidS]) {},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := eng.PushR(cidR{Key: uint64(i % 32), ID: i}, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := eng.PushS(cidS{Key: uint64(i % 32), ID: i}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	passes := func() (n uint64) {
		for _, p := range eng.StatsSnapshot().CollectorPasses {
			n += p
		}
		return n
	}
	// Heartbeats flush the partial batches and promise the idle lanes up
	// to the last pushed timestamp; after that there is nothing left to
	// say. Wait for that state, not for a guess at how long it takes.
	for deadline := time.Now().Add(10 * time.Second); ; {
		p := passes()
		time.Sleep(5 * time.Millisecond)
		if eng.StatsSnapshot().FloorLagNs == 0 && passes() == p {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never went idle: floor lag %d", eng.StatsSnapshot().FloorLagNs)
		}
	}
	p0 := passes()
	time.Sleep(50 * time.Millisecond)
	if p1 := passes(); p1 != p0 {
		t.Fatalf("idle engine ran %d collector passes in 50 ms, want 0", p1-p0)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
