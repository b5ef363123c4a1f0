package desim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestDeterministicInterleave: processes interleave strictly by virtual
// time with FIFO tie-breaking.
func TestDeterministicInterleave(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		e := New()
		var log []string
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10 * time.Millisecond)
				log = append(log, "a")
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Sleep(15 * time.Millisecond)
				log = append(log, "b")
			}
		})
		end := e.Run()
		// a wakes at 10, 20, 30; b at 15, 30. The t=30 tie goes to b: its
		// wakeup was enqueued at t=15, before a's third at t=20.
		want := []string{"a", "b", "a", "b", "a"}
		if len(log) != len(want) {
			t.Fatalf("trial %d: log %v", trial, log)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("trial %d: log %v, want %v", trial, log, want)
			}
		}
		if end != 30*time.Millisecond {
			t.Fatalf("trial %d: end time %v", trial, end)
		}
	}
}

// TestSharedStateNoRaces: only one process runs at a time, so unsynchronised
// shared counters stay consistent (run with -race).
func TestSharedStateNoRaces(t *testing.T) {
	e := New()
	counter := 0
	for i := 0; i < 20; i++ {
		e.Spawn("w", func(p *Proc) {
			for j := 0; j < 50; j++ {
				v := counter
				p.Sleep(time.Duration(j%3) * time.Microsecond)
				counter = v + 1
			}
		})
	}
	e.Run()
	// Interleaved read-sleep-write loses increments deterministically; the
	// point here is only that -race stays silent and the run terminates.
	if counter == 0 {
		t.Fatal("no process ran")
	}
}

// TestSpawnAt and nested spawn.
func TestSpawnAt(t *testing.T) {
	e := New()
	var order []string
	e.SpawnAt(5*time.Millisecond, "late", func(p *Proc) {
		order = append(order, "late")
	})
	e.Spawn("early", func(p *Proc) {
		order = append(order, "early")
		p.eng.Spawn("child", func(q *Proc) {
			q.Sleep(time.Millisecond)
			order = append(order, "child")
		})
	})
	e.Run()
	want := []string{"early", "child", "late"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestCallbacksInterleaveWithProcesses: callbacks and process wake-ups due
// at one instant fire in the order they were scheduled, whichever kind each
// is; a callback in the past runs now.
func TestCallbacksInterleaveWithProcesses(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		e := New()
		var log []string
		mark := func(s string) func() { return func() { log = append(log, s) } }
		e.At(10*time.Millisecond, mark("cb1"))
		e.Spawn("p", func(p *Proc) {
			p.Sleep(10 * time.Millisecond) // scheduled after cb1 and cb2, before cb3
			log = append(log, "p")
			e.At(10*time.Millisecond, mark("cb3"))
			e.At(time.Millisecond, mark("late")) // in the past: clamped to now
			p.Sleep(0)
			log = append(log, "p'")
		})
		e.At(10*time.Millisecond, mark("cb2"))
		e.At(5*time.Millisecond, mark("cb0"))
		if end := e.Run(); end != 10*time.Millisecond {
			t.Fatalf("trial %d: end %v", trial, end)
		}
		want := "cb0 cb1 cb2 p cb3 late p'"
		if got := strings.Join(log, " "); got != want {
			t.Fatalf("trial %d: order %q, want %q", trial, got, want)
		}
	}
}

// TestCallbackSchedulesAndSpawns: a callback may schedule further callbacks
// and spawn processes; both start from the callback's instant.
func TestCallbackSchedulesAndSpawns(t *testing.T) {
	e := New()
	var log []string
	e.At(3*time.Millisecond, func() {
		log = append(log, fmt.Sprint("cb@", e.Now()))
		e.Spawn("child", func(p *Proc) {
			log = append(log, fmt.Sprint("child@", p.Now()))
			p.Sleep(2 * time.Millisecond)
			log = append(log, fmt.Sprint("child'@", p.Now()))
		})
		e.At(4*time.Millisecond, func() { log = append(log, fmt.Sprint("cb'@", e.Now())) })
	})
	e.Run()
	want := "cb@3ms child@3ms cb'@4ms child'@5ms"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// TestRunEndsWithStoppedSource: a self-rearming callback is a source with
// no end of its own. Once the process consuming it returns and stops it,
// its one pending firing finds the flag and does not re-arm, and Run
// returns.
func TestRunEndsWithStoppedSource(t *testing.T) {
	e := New()
	fired, stopped := 0, false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fired++
		e.At(e.Now()+time.Millisecond, tick)
	}
	e.At(0, tick)
	e.Spawn("consumer", func(p *Proc) {
		p.Sleep(10*time.Millisecond + time.Microsecond)
		stopped = true
	})
	if end := e.Run(); end != 11*time.Millisecond {
		t.Fatalf("end %v, want the stopped source's last pending instant", end)
	}
	if fired != 11 {
		t.Fatalf("source fired %d times, want 11 (t = 0..10ms)", fired)
	}
}

// recoverRun runs e and returns what Run panicked with, or nil.
func recoverRun(e *Engine) (v any) {
	defer func() { v = recover() }()
	e.Run()
	return nil
}

func explode() { panic("boom") }

// TestProcessPanicKeepsStack: a panic inside a process, on its first
// resumption or a later one, panics Run with a value that names the
// process and carries the stack it panicked on, down to the faulting
// function.
func TestProcessPanicKeepsStack(t *testing.T) {
	for _, sleeps := range []int{0, 3} {
		e := New()
		e.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(time.Millisecond)
			}
		})
		e.Spawn("doomed", func(p *Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(time.Millisecond)
			}
			explode()
		})
		v := recoverRun(e)
		s, ok := v.(string)
		if !ok {
			t.Fatalf("after %d sleeps: Run panicked with %T %v, want the process's report", sleeps, v, v)
		}
		for _, want := range []string{"desim: process doomed panicked: boom", "desim.explode("} {
			if !strings.Contains(s, want) {
				t.Errorf("after %d sleeps: panic value lacks %q:\n%s", sleeps, want, s)
			}
		}
	}
}

// TestSleptAfterDeath: a process handle outlives its process, but sleeping
// on it is a bug, reported with both names.
func TestSleptAfterDeath(t *testing.T) {
	e := New()
	var early *Proc
	e.Spawn("early", func(p *Proc) { early = p })
	e.Spawn("late", func(p *Proc) {
		p.Sleep(time.Millisecond)
		early.Sleep(time.Millisecond)
	})
	s, _ := recoverRun(e).(string)
	if want := "desim: process late panicked: desim: process early slept after death"; !strings.Contains(s, want) {
		t.Fatalf("Run panicked with %q, want it to contain %q", s, want)
	}
}

// BenchmarkSleepSwitch: two processes alternate, so every Sleep is a
// switch to the other one and back.
func BenchmarkSleepSwitch(b *testing.B) {
	e := New()
	for k := 0; k < 2; k++ {
		e.SpawnAt(time.Duration(k), "p", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(2)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSleepAlone: one process sleeps with nothing else scheduled.
func BenchmarkSleepAlone(b *testing.B) {
	e := New()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// TestZeroAndNegativeSleep.
func TestZeroAndNegativeSleep(t *testing.T) {
	e := New()
	n := 0
	e.Spawn("z", func(p *Proc) {
		p.Sleep(0)
		n++
		p.Sleep(-time.Second)
		n++
	})
	if end := e.Run(); end != 0 {
		t.Fatalf("end %v, want 0", end)
	}
	if n != 2 {
		t.Fatalf("n=%d", n)
	}
}
