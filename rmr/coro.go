//go:build go1.23

package rmr

import "iter"

// Process coroutines. A Scheduler runs every process body on a coroutine
// (iter.Pull) that only the driving goroutine — the caller of Go, Run or
// Drain — resumes, so a step handoff is a direct coroutine switch instead
// of a park and wakeup through the Go scheduler. A body that parks at the
// gate yields back to the driver with the pid it granted (Scheduler.next);
// the driver resumes that pid, and so on until a yield grants nothing: the
// run completed, stalled, or is waiting for Run.

// coproc is one process coroutine. It runs bodies one after another: when
// a body returns, the coroutine marks itself done and yields, and the next
// resume after a new fn is set starts that body.
type coproc struct {
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	fn     func() // body to run at the next start
	done   bool   // the last body returned
}

// coroutine returns an idle coroutine (a fresh one if none is idle) loaded
// with fn; the next resume starts fn.
func (s *Scheduler) coroutine(fn func()) *coproc {
	var c *coproc
	if n := len(s.idle); n > 0 {
		c = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		c = &coproc{}
		c.resume, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			for {
				s.runOne(c.fn)
				c.fn, c.done = nil, true
				if !yield(struct{}{}) {
					return
				}
			}
		})
	}
	c.fn, c.done = fn, false
	return c
}

// resume runs c until its process parks at the gate or returns, and
// reports whether the process is still live. A returned coroutine goes
// back to the idle list.
func (s *Scheduler) resume(c *coproc) bool {
	s.cur = c
	c.resume()
	s.cur = nil
	if c.done {
		s.idle = append(s.idle, c)
		return false
	}
	return true
}

// resumePid resumes the process pid: the coroutine it parked on, or — for
// a GoProc process not started yet — a coroutine that starts its body,
// with the granting step attached as a token when token is set.
func (s *Scheduler) resumePid(pid int, token bool) bool {
	if fn := s.deferred[pid]; fn != nil {
		s.deferred[pid] = nil
		s.token[pid] = token
		return s.resume(s.coroutine(fn))
	}
	return s.resume(s.procs[pid])
}

// drive resumes granted processes until a yield grants none.
func (s *Scheduler) drive(pid int) {
	for pid >= 0 {
		s.resumePid(pid, true)
		pid = s.next
	}
}

// park suspends the running process pid at the gate, handing next (the pid
// it granted, or -1) to the driver, and returns when the driver resumes
// pid.
func (s *Scheduler) park(pid, next int) {
	c := s.cur
	if c == nil {
		panic("rmr: gated operation outside a scheduled process")
	}
	s.procs[pid] = c
	s.next = next
	c.yield(struct{}{})
}

// settle stops the idle coroutines once a run leaves no process live,
// unless the scheduler keeps them for its next run (reuse).
func (s *Scheduler) settle() {
	if !s.reuse && s.live == 0 {
		s.stopCoroutines()
	}
}

// stopCoroutines ends every idle coroutine. Coroutines of live processes
// are never stopped: a process body must not be abandoned mid-run.
func (s *Scheduler) stopCoroutines() {
	for i, c := range s.idle {
		c.stop()
		s.idle[i] = nil
	}
	s.idle = s.idle[:0]
}
