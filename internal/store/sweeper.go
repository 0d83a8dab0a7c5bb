package store

import (
	"sync"
	"time"
)

// Sweeper runs an engine's Sweep on a fixed interval in the
// background, garbage-collecting aged-out tombstones. One sweeper per engine is
// plenty; Sweep itself is safe to run concurrently with everything
// else.
type Sweeper struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartSweeper begins sweeping e every interval (default one second),
// scanning roughly limit entries per pass (limit <= 0 sweeps the whole
// store each time). What it removes is counted where every Sweep is:
// store.sweep.purged.
func StartSweeper(e *Sharded, interval time.Duration, limit int) *Sweeper {
	if interval <= 0 {
		interval = time.Second
	}
	s := &Sweeper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				e.Sweep(limit)
			}
		}
	}()
	return s
}

// Stop halts the sweeper and waits for the in-flight pass to finish.
// Safe to call more than once.
func (s *Sweeper) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}
