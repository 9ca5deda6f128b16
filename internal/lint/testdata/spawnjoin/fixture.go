// Package fixture exercises spawnjoin: a goroutine that can loop forever on
// blocking channel operations anywhere in its call closure must have a
// reachable shutdown edge in that closure. The true positive here hides the
// loop one call deeper than the spawned body; loops in the spawned body
// itself are the ctxclean fixture's cases.
package fixture

type worker struct {
	ch   chan int
	done chan struct{}
}

func (w *worker) Start() {
	go w.run() // want `goroutine .*run loops forever on blocking channel operations \(in .*pump\) with no reachable shutdown edge`
}

// run itself has no loop; the wedge is in pump, one call down.
func (w *worker) run() { w.pump() }

func (w *worker) pump() {
	for {
		w.ch <- 1
	}
}

func (w *worker) StartJoined() {
	go w.runJoined()
}

// runJoined loops but watches the done channel: clean.
func (w *worker) runJoined() {
	for {
		select {
		case w.ch <- 1:
		case <-w.done:
			return
		}
	}
}

func (w *worker) StartAllowed() {
	//lint:allow spawnjoin — fixture: process-lifetime goroutine, never joined by design
	go w.runAllowed()
}

func (w *worker) runAllowed() {
	for {
		w.ch <- 1
	}
}
