package slap

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestCostModels(t *testing.T) {
	if err := Unit().Validate(); err != nil {
		t.Fatal(err)
	}
	bs := BitSerial(12)
	if err := bs.Validate(); err != nil {
		t.Fatal(err)
	}
	if bs.WordSteps != 12 || bs.WordBits != 12 {
		t.Fatalf("bit-serial model wrong: %+v", bs)
	}
	if (CostModel{}).Validate() == nil {
		t.Fatal("zero cost model must be invalid")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BitSerial(0) should panic")
		}
	}()
	BitSerial(0)
}

func TestWordBitsFor(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 3}, {4, 5}, {16, 9}, {1024, 21},
	} {
		if got := WordBitsFor(tc.n); got != tc.want {
			t.Errorf("WordBitsFor(%d): want %d, got %d", tc.n, tc.want, got)
		}
	}
}

func TestRunLocalMakespanIsMax(t *testing.T) {
	m := NewMachine(4, Unit())
	span := m.RunLocal("work", func(pe *PE) {
		pe.Tick(int64(pe.Index + 1)) // PE 3 works 4 steps
	})
	if span != 4 {
		t.Fatalf("makespan: want 4, got %d", span)
	}
	mt := m.Metrics()
	if mt.Time != 4 || len(mt.Phases) != 1 || mt.Phases[0].Busy != 1+2+3+4 {
		t.Fatalf("unexpected metrics %+v", mt)
	}
}

func TestChargeGlobal(t *testing.T) {
	m := NewMachine(8, Unit())
	m.ChargeGlobal("input", 8)
	mt := m.Metrics()
	if mt.Time != 8 {
		t.Fatalf("want global charge 8, got %d", mt.Time)
	}
	if p, ok := mt.Phase("input"); !ok || p.Busy != 64 {
		t.Fatalf("input phase metrics wrong: %+v ok=%v", p, ok)
	}
	if _, ok := mt.Phase("nope"); ok {
		t.Fatal("Phase should miss unknown names")
	}
}

// pipelineSweep: every PE forwards a token after one tick of local work.
// The completion time of the last PE must be Θ(n): the systolic pipeline
// the whole design rests on.
func TestSweepPipelineLatency(t *testing.T) {
	const n = 64
	m := NewMachine(n, Unit())
	span := m.RunSweep("pipe", LeftToRight, func(pe *PE) {
		if !pe.HasIn() {
			pe.Tick(1)
			pe.Send(Msg{Kind: 1})
			return
		}
		msg, ok := pe.RecvWait()
		if !ok {
			t.Fatalf("PE %d: token lost", pe.Index)
		}
		if msg.Kind != 1 {
			t.Fatalf("PE %d: wrong token %v", pe.Index, msg)
		}
		if pe.Index != n-1 {
			pe.Send(msg)
		}
	})
	// PE0 finishes at 2; each hop adds recv (≥1 after ready) + send 1.
	if span < int64(n) || span > int64(4*n) {
		t.Fatalf("pipeline span should be Θ(n), got %d", span)
	}
}

func TestSweepRightToLeft(t *testing.T) {
	const n = 5
	m := NewMachine(n, Unit())
	var order []int
	m.RunSweep("r2l", RightToLeft, func(pe *PE) {
		order = append(order, pe.Index)
		if pe.HasIn() {
			if _, ok := pe.RecvWait(); !ok {
				t.Fatalf("PE %d should receive", pe.Index)
			}
		}
		if pe.Index != 0 {
			pe.Send(Msg{Kind: 9})
		}
	})
	want := []int{4, 3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	if LeftToRight.String() == RightToLeft.String() {
		t.Fatal("directions should render distinctly")
	}
}

func TestRecvPollSemantics(t *testing.T) {
	m := NewMachine(2, Unit())
	m.RunSweep("poll", LeftToRight, func(pe *PE) {
		if pe.Index == 0 {
			pe.Tick(10) // message ready at t=11
			pe.Send(Msg{Kind: 7})
			return
		}
		// Receiver polls from t=0: the first ten polls (t=1..10) must
		// return nothing; the poll completing at t=11 succeeds.
		got := false
		for i := 0; i < 20; i++ {
			if msg, ok := pe.Recv(); ok {
				if pe.Now() != 11 {
					t.Fatalf("message consumed at t=%d, want 11", pe.Now())
				}
				if msg.Kind != 7 {
					t.Fatalf("wrong message %+v", msg)
				}
				got = true
				break
			}
		}
		if !got {
			t.Fatal("poller never saw the message")
		}
	})
}

func TestRecvWaitFastForwardMatchesPolling(t *testing.T) {
	// RecvWait and a manual Recv polling loop must land on identical
	// clocks: fast-forward is an optimization, not a semantic change.
	run := func(manual bool) int64 {
		var final int64
		m := NewMachine(2, Unit())
		m.RunSweep("x", LeftToRight, func(pe *PE) {
			if pe.Index == 0 {
				pe.Tick(17)
				pe.Send(Msg{Kind: 1})
				return
			}
			if manual {
				for {
					if _, ok := pe.Recv(); ok {
						break
					}
				}
			} else {
				if _, ok := pe.RecvWait(); !ok {
					t.Fatal("RecvWait should succeed")
				}
			}
			final = pe.Now()
		})
		return final
	}
	a, b := run(true), run(false)
	if a != b {
		t.Fatalf("manual polling got t=%d, RecvWait got t=%d", a, b)
	}
}

func TestRecvWaitIdleWorkRunsOncePerIdleCycle(t *testing.T) {
	m := NewMachine(2, Unit())
	m.RunSweep("idle", LeftToRight, func(pe *PE) {
		if pe.Index == 0 {
			pe.Tick(10)
			pe.Send(Msg{})
			return
		}
		calls := 0
		pe.OnIdle(func() { calls++ })
		if _, ok := pe.RecvWait(); !ok {
			t.Fatal("want message")
		}
		// Message ready at 11; successful poll at 11; idle polls at 1..10.
		if calls != 10 {
			t.Fatalf("idle work should run 10 times, ran %d", calls)
		}
		if pe.Now() != 11 {
			t.Fatalf("idle path clock %d, want 11", pe.Now())
		}
	})
}

func TestRecvWaitExhaustedStream(t *testing.T) {
	m := NewMachine(2, Unit())
	m.RunSweep("drain", LeftToRight, func(pe *PE) {
		if pe.Index == 0 {
			pe.Send(Msg{Kind: 1})
			return
		}
		if _, ok := pe.RecvWait(); !ok {
			t.Fatal("first record should arrive")
		}
		if _, ok := pe.RecvWait(); ok {
			t.Fatal("exhausted stream must report ok=false")
		}
		if _, ok := pe.Recv(); ok {
			t.Fatal("poll on exhausted stream must fail")
		}
	})
}

func TestBitSerialWordCost(t *testing.T) {
	// Under the Theorem 5 model a 2-word record takes 2×bits link steps.
	const bits = 10
	m := NewMachine(2, BitSerial(bits))
	m.RunSweep("bits", LeftToRight, func(pe *PE) {
		if pe.Index == 0 {
			pe.Send(Msg{Words: 2})
			if pe.Now() != 2*bits {
				t.Fatalf("sender occupied for %d, want %d", pe.Now(), 2*bits)
			}
			return
		}
		if _, ok := pe.RecvWait(); !ok {
			t.Fatal("want record")
		}
		if pe.Now() != 2*bits {
			t.Fatalf("receiver got record at %d, want %d", pe.Now(), 2*bits)
		}
	})
	if w := m.Metrics().Words; w != 2 {
		t.Fatalf("word count: want 2, got %d", w)
	}
}

func TestQueueBacklogPeak(t *testing.T) {
	m := NewMachine(2, Unit())
	m.RunSweep("burst", LeftToRight, func(pe *PE) {
		if pe.Index == 0 {
			for i := 0; i < 5; i++ {
				pe.Send(Msg{Kind: uint8(i)})
			}
			return
		}
		pe.Tick(100) // let everything pile up
		for i := 0; i < 5; i++ {
			if _, ok := pe.RecvWait(); !ok {
				t.Fatal("missing record")
			}
		}
	})
	mt := m.Metrics()
	if mt.MaxQueue != 5 {
		t.Fatalf("peak backlog: want 5, got %d", mt.MaxQueue)
	}
}

func TestQueueBacklogSteadyState(t *testing.T) {
	m := NewMachine(2, Unit())
	m.RunSweep("steady", LeftToRight, func(pe *PE) {
		if pe.Index == 0 {
			for i := 0; i < 50; i++ {
				pe.Tick(1)
				pe.Send(Msg{})
			}
			return
		}
		for i := 0; i < 50; i++ {
			if _, ok := pe.RecvWait(); !ok {
				t.Fatal("missing record")
			}
		}
	})
	// Consumer keeps pace (1 recv per 2 sender steps): backlog stays small.
	if q := m.Metrics().MaxQueue; q > 2 {
		t.Fatalf("steady-state backlog should be ≤ 2, got %d", q)
	}
}

func TestDeclareMemoryTracked(t *testing.T) {
	m := NewMachine(3, Unit())
	m.RunLocal("mem", func(pe *PE) {
		pe.DeclareMemory(int64(100 * (pe.Index + 1)))
		pe.DeclareMemory(5) // smaller later declaration must not shrink
	})
	if got := m.Metrics().PEMemory; got != 300 {
		t.Fatalf("PEMemory: want 300, got %d", got)
	}
}

func TestSendWithoutLinkPanics(t *testing.T) {
	m := NewMachine(1, Unit())
	defer func() {
		if recover() == nil {
			t.Fatal("send on the last PE should panic")
		}
	}()
	m.RunSweep("solo", LeftToRight, func(pe *PE) {
		pe.Send(Msg{})
	})
}

func TestNegativeTickPanics(t *testing.T) {
	m := NewMachine(1, Unit())
	defer func() {
		if recover() == nil {
			t.Fatal("negative tick should panic")
		}
	}()
	m.RunLocal("bad", func(pe *PE) { pe.Tick(-1) })
}

func TestMachineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size should panic")
		}
	}()
	NewMachine(-1, Unit())
}

func TestChargeGlobalNegativePanics(t *testing.T) {
	m := NewMachine(1, Unit())
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge should panic")
		}
	}()
	m.ChargeGlobal("bad", -1)
}

func TestProfilePerPE(t *testing.T) {
	m := NewMachine(4, Unit())
	m.EnableProfile()
	m.RunLocal("w", func(pe *PE) { pe.Tick(int64(pe.Index + 1)) })
	p := m.Metrics().Phases[0]
	if len(p.PerPE) != 4 {
		t.Fatalf("PerPE should have 4 entries, got %d", len(p.PerPE))
	}
	for i, want := range []int64{1, 2, 3, 4} {
		if p.PerPE[i] != want {
			t.Fatalf("PerPE[%d]: want %d, got %d", i, want, p.PerPE[i])
		}
	}
	// Profile off: no PerPE.
	m2 := NewMachine(2, Unit())
	m2.RunLocal("w", func(pe *PE) { pe.Tick(1) })
	if m2.Metrics().Phases[0].PerPE != nil {
		t.Fatal("PerPE should be nil without profiling")
	}
	// Sweeps record the profile by PE index, not sweep position: a
	// right-to-left wavefront starts at PE 2 (tick, send: done at 2),
	// and PE 1 forwards the token (ready at 2, sent on at 3) to PE 0.
	m3 := NewMachine(3, Unit())
	m3.EnableProfile()
	m3.RunSweep("s", RightToLeft, func(pe *PE) {
		pe.Tick(1)
		if pe.HasIn() {
			if _, ok := pe.RecvWait(); !ok {
				t.Error("missing token")
			}
		}
		if pe.HasOut() {
			pe.Send(Msg{})
		}
	})
	pp := m3.Metrics().Phases[0].PerPE
	if !reflect.DeepEqual(pp, []int64{3, 3, 2}) {
		t.Fatalf("right-to-left sweep profile wrong: %v", pp)
	}
}

func metricsEqual(a, b Metrics) bool {
	if a.Time != b.Time || a.Sends != b.Sends || a.Words != b.Words || a.MaxQueue != b.MaxQueue {
		return false
	}
	if len(a.Phases) != len(b.Phases) {
		return false
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if pa.Makespan != pb.Makespan || pa.Busy != pb.Busy || pa.Idle != pb.Idle ||
			pa.Sends != pb.Sends || pa.Words != pb.Words || pa.NilRecvs != pb.NilRecvs ||
			pa.MaxQueue != pb.MaxQueue {
			return false
		}
	}
	return true
}

// TestMachineResetMatchesFresh: a reset machine must be observationally
// identical to a fresh one, and its sweeps must stop allocating once the
// link arena is warm.
func TestMachineResetMatchesFresh(t *testing.T) {
	run := func(m *Machine) Metrics {
		m.ChargeGlobal("input", 3)
		m.RunSweep("s", LeftToRight, func(pe *PE) {
			if !pe.HasIn() {
				for i := 0; i < 10; i++ {
					pe.Tick(2)
					pe.Send(Msg{Kind: 1, Words: 2})
				}
				pe.Send(Msg{Kind: 0})
				return
			}
			for {
				msg, ok := pe.RecvWait()
				if !ok || msg.Kind == 0 {
					return
				}
				pe.Tick(1)
			}
		})
		m.RunLocal("l", func(pe *PE) { pe.Tick(int64(pe.Index)) })
		return m.Metrics()
	}
	fresh := run(NewMachine(6, Unit()))
	reused := NewMachine(9, BitSerial(4))
	run(reused) // dirty it
	reused.Reset(6, Unit())
	if got := run(reused); !metricsEqual(fresh, got) {
		t.Fatalf("reset machine diverges:\nfresh  %+v\nreused %+v", fresh, got)
	}
	// The copy Metrics returns must survive a Reset.
	snapshot := reused.Metrics()
	phases := len(snapshot.Phases)
	reused.Reset(2, Unit())
	run(reused)
	if len(snapshot.Phases) != phases || snapshot.Phases[0].Name != "input" {
		t.Fatal("Metrics snapshot corrupted by machine reuse")
	}
	// Warm sequential sweeps allocate nothing.
	m := NewMachine(6, Unit())
	run(m)
	allocs := testing.AllocsPerRun(10, func() {
		m.Reset(6, Unit())
		run(m)
	})
	// Metrics() deep-copies its phase slice per call; everything else is
	// arena-backed.
	if allocs > 4 {
		t.Fatalf("warm sequential run allocates %.1f times, want ≤ 4", allocs)
	}
}

// Property: for any pattern of sender delays, the receiver's completion
// time equals max over records of (arrival chain), and busy+idle = clock
// on the receiving PE.
func TestSweepTimeAccountingQuick(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 40 {
			delays = delays[:40]
		}
		ok := true
		m := NewMachine(2, Unit())
		m.RunSweep("acct", LeftToRight, func(pe *PE) {
			if pe.Index == 0 {
				for _, d := range delays {
					pe.Tick(int64(d % 8))
					pe.Send(Msg{})
				}
				return
			}
			for range delays {
				if _, got := pe.RecvWait(); !got {
					ok = false
					return
				}
			}
			if pe.busy+pe.idleTime != pe.clock {
				ok = false
			}
		})
		if !ok {
			return false
		}
		mt := m.Metrics()
		p := mt.Phases[0]
		return p.Busy+p.Idle >= p.Makespan && p.Sends == int64(len(delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
