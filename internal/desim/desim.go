// Package desim is a small deterministic discrete-event simulation engine
// with two kinds of event on one virtual clock. A process is a goroutine;
// the engine runs exactly one at a time and hands control between them in
// virtual-time order, so shared state needs no locking and runs are
// reproducible. A timed callback (At) is a function the engine calls
// itself: no goroutine, no channel. Processes are for mappers, which block
// mid-algorithm — submit a probe, wait out the response, decide the next —
// and need a stack of their own; anything that is only a schedule (a
// traffic source, a crash) is a callback that re-arms itself. The engine
// drives the paper's concurrent-mapping experiments: the election
// operational mode (§4.2), multi-mapper parallel mapping (§6), and mapping
// under application cross-traffic (§6).
package desim

import (
	"fmt"
	"time"

	"sanmap/internal/eventq"
)

// Engine schedules processes and callbacks over virtual time.
type Engine struct {
	now    time.Duration
	events *eventq.Heap[event]
	seq    int64
	// yield receives a token whenever the running process blocks or ends.
	yield   chan struct{}
	running int // live processes
	started bool
}

// New returns an idle engine at time zero.
func New() *Engine {
	return &Engine{yield: make(chan struct{}), events: eventq.New(eventLess)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Proc is the handle a process uses to interact with virtual time.
type Proc struct {
	eng  *Engine
	name string
	wake chan struct{}
	dead bool
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// event is a callback (fn), a process launch (p, start) or a wake-up (p).
type event struct {
	at    time.Duration
	seq   int64
	p     *Proc
	start func(*Proc)
	fn    func()
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

// SpawnAt registers a process to start at the given virtual time.
func (e *Engine) SpawnAt(at time.Duration, name string, f func(*Proc)) {
	p := &Proc{eng: e, name: name, wake: make(chan struct{})}
	e.running++
	// Each live process owns at most one pending event, so the live count
	// is a floor on the queue's high-water mark; Reserve's doubling growth
	// keeps per-spawn tracking O(n) overall.
	e.events.Reserve(e.running)
	e.push(event{at: at, p: p, start: f})
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
		switch {
		case ev.fn != nil:
			ev.fn()
			continue
		case ev.start != nil:
			go func(p *Proc, f func(*Proc)) {
				defer func() {
					p.dead = true
					e.running--
					e.yield <- struct{}{}
				}()
				f(p)
			}(ev.p, ev.start)
		default:
			ev.p.wake <- struct{}{}
		}
		<-e.yield
	}
	return e.now
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero. Other processes run while this one sleeps.
func (p *Proc) Sleep(d time.Duration) {
	if p.dead {
		panic(fmt.Sprintf("desim: process %s slept after death", p.name))
	}
	p.eng.push(event{at: p.eng.now + d, p: p})
	p.eng.yield <- struct{}{}
	<-p.wake
}
