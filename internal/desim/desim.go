// Package desim is a small deterministic discrete-event simulation engine
// with two kinds of event on one virtual clock. A process is a coroutine
// (iter.Pull): it has a stack of its own, so it can block mid-algorithm —
// submit a probe, wait out the response, decide the next — but the engine
// resumes it directly and it yields back, with no goroutine hand-off and
// no channel. Exactly one thing runs at a time, in virtual-time order, so
// shared state needs no locking and runs are reproducible. A process whose
// wake-up would be the next event anyway does not switch at all: Sleep
// moves the clock and returns. A timed callback (At) is a function the
// engine calls itself. Processes are for mappers; anything that is only a
// schedule (a traffic source, a crash) is a callback that re-arms itself.
// The engine drives the paper's concurrent-mapping experiments: the
// election operational mode (§4.2), multi-mapper parallel mapping (§6),
// and mapping under application cross-traffic (§6).
package desim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"

	"sanmap/internal/eventq"
)

// Engine schedules processes and callbacks over virtual time.
type Engine struct {
	now     time.Duration
	events  *eventq.Heap[event]
	seq     int64
	running int // live processes
	started bool
}

// New returns an idle engine at time zero.
func New() *Engine {
	return &Engine{events: eventq.New(eventLess)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Proc is the handle a process uses to interact with virtual time.
type Proc struct {
	eng    *Engine
	name   string
	resume func() (struct{}, bool) // runs the process until it yields or ends
	yield  func(struct{}) bool     // hands control back to Run
	dead   bool
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// event is a callback (fn) or a process's start or wake-up (p).
type event struct {
	at  time.Duration
	seq int64
	p   *Proc
	fn  func()
}

// eventLess orders by virtual time, sequence number breaking ties so equal
// timestamps dispatch in scheduling order.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev event) {
	if ev.at < e.now {
		ev.at = e.now
	}
	ev.seq = e.seq
	e.seq++
	e.events.Push(ev)
}

// At schedules fn to run on the engine at virtual time t (now, if t has
// passed). Callbacks and process wake-ups due at one instant run in the
// order they were scheduled. fn may schedule callbacks (a source re-arms
// itself) and spawn processes; it must not block, having no process to
// suspend.
func (e *Engine) At(t time.Duration, fn func()) {
	e.push(event{at: t, fn: fn})
}

// Spawn registers a process to start at the current virtual time (or at
// Run's start). Spawning after Run has returned is an error.
func (e *Engine) Spawn(name string, f func(*Proc)) {
	e.SpawnAt(e.now, name, f)
}

// SpawnAt registers a process to start at the given virtual time. A panic
// inside f panics Run with the process's name and the stack it panicked
// on, which the coroutine hand-back would otherwise lose.
func (e *Engine) SpawnAt(at time.Duration, name string, f func(*Proc)) {
	p := &Proc{eng: e, name: name}
	// No stop function: Run resumes every process until its body returns.
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.dead = true
			e.running--
			if r := recover(); r != nil {
				panic(fmt.Sprintf("desim: process %s panicked: %v\n%s", p.name, r, debug.Stack()))
			}
		}()
		f(p)
	})
	e.running++
	// Each live process owns at most one pending event, so the live count
	// is a floor on the queue's high-water mark; Reserve's doubling growth
	// keeps per-spawn tracking O(n) overall.
	e.events.Reserve(e.running)
	e.push(event{at: at, p: p})
}

// Run executes events until none remain, then returns the final virtual
// time. It panics if called twice.
func (e *Engine) Run() time.Duration {
	if e.started {
		panic("desim: Run called twice")
	}
	e.started = true
	for e.events.Len() > 0 {
		ev := e.events.Pop()
		e.now = ev.at
		if ev.fn != nil {
			ev.fn()
		} else {
			ev.p.resume()
		}
	}
	return e.now
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero. Other processes run while this one sleeps. When nothing is
// due before the wake-up, Run would resume this process next, so Sleep
// only moves the clock; an event due at the wake-up instant itself was
// scheduled first and must run first, so then the process yields.
func (p *Proc) Sleep(d time.Duration) {
	if p.dead {
		panic(fmt.Sprintf("desim: process %s slept after death", p.name))
	}
	e := p.eng
	at := max(e.now+d, e.now)
	if next, ok := e.events.Peek(); !ok || next.at > at {
		e.now = at
		return
	}
	e.push(event{at: at, p: p})
	p.yield(struct{}{})
}
