package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refEvent is one pending event of the reference model: the queue order
// is (when, seq), so a plain sort of the live set is the oracle.
type refEvent struct {
	when Time
	seq  uint64
	id   int
}

// checkHeap verifies the 4-ary heap property and the index back-links.
func checkHeap(s *Simulator) bool {
	for i, e := range s.queue {
		if e.index != i {
			return false
		}
		if i > 0 && before(e, s.queue[(i-1)/4]) {
			return false
		}
	}
	return true
}

// Property: under random interleavings of At, AtArg, Cancel (of a random
// live timer, of the root and of the last heap slot) and single steps, the
// typed heap pops exactly the sequence of a reference sort by (when, seq),
// and keeps its shape and index invariants after every operation.
func TestQuickHeapMatchesReference(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New(1)
		var live []refEvent
		timers := map[int]Timer{}
		var fired []int
		nextID := 0
		seq := uint64(0)
		record := func(arg any) { fired = append(fired, arg.(int)) }
		schedule := func(op uint16, withArg bool) {
			id := nextID
			nextID++
			// Offsets reach a little into the past to exercise clamping,
			// and collide often to exercise the seq tie-break.
			when := s.Now() + Time(op>>4%48) - 8
			var tm Timer
			if withArg {
				tm = s.AtArg(when, record, id)
			} else {
				tm = s.At(when, func() { fired = append(fired, id) })
			}
			live = append(live, refEvent{max(when, s.Now()), seq, id})
			seq++
			timers[id] = tm
		}
		cancel := func(id int) bool {
			if !timers[id].Cancel() {
				return false
			}
			delete(timers, id)
			live = slices.DeleteFunc(live, func(r refEvent) bool { return r.id == id })
			return true
		}
		// slotID finds the live timer whose event sits in heap slot i.
		slotID := func(i int) int {
			for id, tm := range timers {
				if tm.ev == s.queue[i] {
					return id
				}
			}
			return -1
		}
		byOrder := func(a, b refEvent) int {
			if a.when != b.when {
				return int(a.when - b.when)
			}
			return int(a.seq) - int(b.seq)
		}
		for _, op := range ops {
			switch op % 7 {
			case 0, 1:
				schedule(op, false)
			case 2:
				schedule(op, true)
			case 3:
				if len(live) > 0 && !cancel(live[int(op>>3)%len(live)].id) {
					return false
				}
			case 4:
				if len(s.queue) > 0 && !cancel(slotID(0)) {
					return false
				}
			case 5:
				if len(s.queue) > 0 && !cancel(slotID(len(s.queue)-1)) {
					return false
				}
			case 6:
				if len(live) == 0 {
					continue
				}
				slices.SortFunc(live, byOrder)
				want := live[0]
				live = live[1:]
				delete(timers, want.id)
				n := len(fired)
				if !s.step(-1) || len(fired) != n+1 || fired[n] != want.id || s.Now() != want.when {
					return false
				}
			}
			if !checkHeap(s) || len(s.queue) != len(live) {
				return false
			}
		}
		slices.SortFunc(live, byOrder)
		n := len(fired)
		s.Run()
		if len(fired)-n != len(live) {
			return false
		}
		for i, r := range live {
			if fired[n+i] != r.id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Fatal(err)
	}
}

// assertNoAllocs fails when avg is not zero, logging instead under -race
// (instrumentation allocates).
func assertNoAllocs(t *testing.T, what string, avg float64) {
	t.Helper()
	if raceEnabled {
		t.Logf("allocs per %s under -race: %.2f (not asserted)", what, avg)
		return
	}
	if avg != 0 {
		t.Errorf("allocs per %s = %.2f, want 0", what, avg)
	}
}

// TestAllocFreeScheduleStepCancel pins the event queue's steady state at
// zero allocations: scheduling reuses pooled events, stepping and
// cancelling return them to the pool, and the typed heap boxes nothing.
func TestAllocFreeScheduleStepCancel(t *testing.T) {
	s := New(1)
	fn := func() {}
	argFn := func(any) {}
	round := func() {
		s.At(s.Now()+3, fn)
		s.AtArg(s.Now()+1, argFn, s)
		s.At(s.Now()+2, fn).Cancel()
		s.step(-1)
		s.step(-1)
	}
	for i := 0; i < 16; i++ {
		round()
	}
	assertNoAllocs(t, "schedule/step/cancel round", testing.AllocsPerRun(200, round))
}

// TestAllocFreeTickerRearm pins a running ticker at zero allocations per
// tick: each re-arm goes through AtArg with the package-level tickerFire.
func TestAllocFreeTickerRearm(t *testing.T) {
	s := New(1)
	ticks := 0
	tk := s.Tick(Second, 100*Millisecond, func() { ticks++ })
	defer tk.Stop()
	s.RunFor(10 * Second)
	before := ticks
	avg := testing.AllocsPerRun(200, func() { s.RunFor(Second) })
	if ticks-before < 150 {
		t.Fatalf("ticker fired %d times in 200 s", ticks-before)
	}
	assertNoAllocs(t, "ticker re-arm", avg)
}

// TestAllocFreeMergeLanes pins the barrier merge at zero allocations once
// its gather buffer and the lanes have grown: every shard emits to every
// other, the merge drains the lanes into the destination heaps, and the
// shards run the merged events off again.
func TestAllocFreeMergeLanes(t *testing.T) {
	const k = 4
	g := NewSharded(1, k, 1)
	g.SetLookahead(Duration(Millisecond))
	fn := func(any) {}
	round := func() {
		g.inWindow, g.windowEnd = true, 0
		for from := 0; from < k; from++ {
			for to := 0; to < k; to++ {
				if from != to {
					g.Send(from, to, Time(3*to+from), fn, g)
				}
			}
		}
		g.inWindow = false
		g.mergeLanes()
		for i := 0; i < k; i++ {
			g.Shard(i).Run()
		}
	}
	for i := 0; i < 16; i++ {
		round()
	}
	assertNoAllocs(t, "lane merge round", testing.AllocsPerRun(200, round))
}

// mergeToken is one message bouncing between shards in
// BenchmarkShardedWindowMerge; it is owned by the shard it currently sits
// on, and ownership moves with the cross-shard event.
type mergeToken struct {
	g     *Sharded
	shard int
	x     uint64
}

// bounceToken forwards the token to a pseudo-random other shard, landing
// between one and two lookaheads later.
func bounceToken(arg any) {
	tk := arg.(*mergeToken)
	tk.x = splitmix64(tk.x)
	k := len(tk.g.shards)
	from := tk.shard
	tk.shard = (from + 1 + int(tk.x%uint64(k-1))) % k
	look := tk.g.lookahead
	when := tk.g.shards[from].Now().Add(look + Duration(tk.x>>16)%look)
	tk.g.Send(from, tk.shard, when, bounceToken, tk)
}

// BenchmarkShardedWindowMerge measures the sharded engine's window cycle
// with busy cross-shard lanes: 8 shards, one worker, 64 tokens per shard,
// every event a cross-shard send. One op is one lookahead of virtual time
// — window floor, shard runs, barrier and lane merge.
func BenchmarkShardedWindowMerge(b *testing.B) {
	const k, perShard = 8, 64
	g := NewSharded(1, k, 1)
	defer g.Close()
	look := Duration(Millisecond)
	g.SetLookahead(look)
	for i := 0; i < k*perShard; i++ {
		tk := &mergeToken{g: g, shard: i % k, x: uint64(i)}
		g.Shard(tk.shard).AtArg(Time(i%int(look)), bounceToken, tk)
	}
	g.RunFor(20 * look)
	b.ReportAllocs()
	b.ResetTimer()
	start := g.Processed()
	for i := 0; i < b.N; i++ {
		g.RunFor(look)
	}
	b.StopTimer()
	b.ReportMetric(float64(g.Processed()-start)/float64(b.N), "events/op")
}
