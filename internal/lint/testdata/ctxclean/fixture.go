// Package fixture holds the cases of the deleted ctxclean analyzer, which
// spawnjoin subsumes: a goroutine whose spawned body itself loops forever on
// blocking channel operations must observe a shutdown signal. They are run
// through spawnjoin, so every construct ctxclean flagged is still flagged.
package fixture

type server struct {
	ch     chan int
	done   chan struct{}
	closed chan struct{}
}

func (s *server) start() {
	go s.badLoop() // want `goroutine .*badLoop loops forever on blocking channel operations \(in .*badLoop\) with no reachable shutdown edge`
	go s.goodLoop()
	go s.boundedLoop()
	go func() { // want `goroutine .*start\.func loops forever on blocking channel operations`
		for {
			<-s.ch
		}
	}()
	go func() {
		for {
			select {
			case v := <-s.ch:
				_ = v
			case <-s.done:
				return
			}
		}
	}()
}

// badLoop blocks forever on a receive with no way out at shutdown.
func (s *server) badLoop() {
	for {
		v := <-s.ch
		_ = v
	}
}

// goodLoop selects on the closed channel.
func (s *server) goodLoop() {
	for {
		select {
		case v := <-s.ch:
			_ = v
		case <-s.closed:
			return
		}
	}
}

// boundedLoop is not an infinite `for {}`: it exits by its condition, so
// a shutdown signal is not required.
func (s *server) boundedLoop() {
	for i := 0; i < 8; i++ {
		v := <-s.ch
		_ = v
	}
}

type ctxWorker struct {
	in chan int
}

// run watches a context; the received Done() counts as a shutdown signal.
func (w *ctxWorker) run(ctx interface{ Done() <-chan struct{} }) {
	go func() {
		for {
			select {
			case v := <-w.in:
				_ = v
			case <-ctx.Done():
				return
			}
		}
	}()
}
