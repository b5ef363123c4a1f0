// Fixture for the goroutine analyzer: every go statement needs a provable
// join (g1 WaitGroup, g2 done channel, g3 signalling callee — including one
// proven by a fact exported from the worker sub-package).
package goroutine

import (
	"sync"

	"sanmap/internal/analysis/testdata/src/goroutine/worker"
)

// g1 good: Add before the launch, Done inside, Wait after.
func waitGroupGood() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// g1 bad: the closure calls Done but nothing ever Adds.
func waitGroupNoAdd() {
	var wg sync.WaitGroup
	go func() { // want "wg.Add is not called before the go statement"
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// bad: nothing in the closure signals completion at all.
func fireAndForget() {
	go func() { // want "fire-and-forget goroutine"
		work()
	}()
}

// g2 good: done channel closed by the goroutine, received by the launcher.
func doneChannelGood() {
	done := make(chan struct{})
	go func() {
		work()
		close(done)
	}()
	<-done
}

// g2 bad: the goroutine sends on a local channel nobody receives from.
func doneChannelDropped() {
	done := make(chan struct{})
	go func() { // want "signals on done but this function never receives from it"
		done <- struct{}{}
	}()
	_ = done
}

// g2 good: collecting over a results channel is a join.
func collectGood() {
	results := make(chan int)
	go func() {
		for i := 0; i < 3; i++ {
			results <- i
		}
		close(results)
	}()
	for r := range results {
		work()
		_ = r
	}
}

// g3 good: the callee takes the WaitGroup at the call site.
func namedWithWaitGroup() {
	var wg sync.WaitGroup
	wg.Add(1)
	go runner(&wg)
	wg.Wait()
}

func runner(wg *sync.WaitGroup) {
	defer wg.Done()
	work()
}

// g3 bad: the callee signals nothing.
func namedNoJoin() {
	go work() // want "go work has no provable join"
}

// g3 bad: a dynamic callee cannot be proven to signal.
func dynamic(f func()) {
	go f() // want "dynamic call has no provable join"
}

// g3 cross-package good: worker exports the fact that (*Pool).Work signals
// completion through its receiver's WaitGroup, so no call-site handle is
// needed.
func poolJoin() {
	p := worker.NewPool()
	p.Track()
	go p.Work()
	p.Wait()
}

func work() {}
