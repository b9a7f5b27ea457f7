package main

import (
	"runtime"
	"time"
)

// stepper is one embedded workload's op stream against one entry point.
// prepare draws the next op from the seed (outside the timed call), exec
// makes the call into the program, ack tells the model the call succeeded.
type stepper interface {
	prepare()
	exec() error
	ack()
	// isWrite and userBytes describe the op just executed.
	isWrite() bool
	userBytes() int
}

// embeddedRun is what one goroutine measured over one window.
type embeddedRun struct {
	rec       sliceRec
	cpu       cpuMarks
	rul       rulerRec
	attempted int64
	failed    int64
	wallNS    int64 // host time spent inside exec, whole run
	simWallNS int64 // the same, over the simulated-clock window only
	// sim covers the first simOps ops exactly: a fixed op count from a fixed
	// seed, so every number derived from it repeats bit for bit.
	sim simDelta
}

// embeddedLoop is one stepper being driven through one window.
type embeddedLoop struct {
	st       stepper
	w        window
	end      time.Time
	simOps   int64
	snap     func() simSnap // reads the simulated machine
	atSimEnd func()         // runs once, when the simulated-clock window closes
	run      *embeddedRun
	cur      int    // current slice
	ruler    *ruler // ticked between ops on the measured run; nil on the traced arms
}

func newEmbeddedLoop(st stepper, w window, simOps int64, snap func() simSnap, atSimEnd func()) *embeddedLoop {
	l := &embeddedLoop{st: st, w: w, end: w.end(), simOps: simOps, snap: snap, atSimEnd: atSimEnd, run: &embeddedRun{}}
	l.run.sim.a = snap()
	l.run.cpu[0] = cpuNS()
	return l
}

// step runs one op; it reports whether the loop is finished: the window
// has ended and the simulated-clock window's simOps ops are done.
func (l *embeddedLoop) step() bool {
	run, st := l.run, l.st
	st.prepare()
	t0 := time.Now()
	err := st.exec()
	t1 := time.Now()
	run.attempted++
	run.wallNS += int64(t1.Sub(t0))
	if err != nil {
		run.failed++
	} else {
		st.ack()
	}
	for s := l.w.slice(t1); l.cur < s; {
		l.cur++
		run.cpu[l.cur] = cpuNS()
	}
	run.rec.add(l.cur, int64(t1.Sub(t0)), 1)
	if l.ruler != nil {
		l.ruler.tick(l.w, &run.rul)
	}
	if run.attempted <= l.simOps {
		run.sim.ops++
		if st.isWrite() {
			run.sim.writes++
			run.sim.userBytes += int64(st.userBytes())
		}
		if run.attempted == l.simOps {
			run.sim.b = l.snap()
			run.simWallNS = run.wallNS
			l.atSimEnd()
		}
	}
	return run.attempted >= l.simOps && !t1.Before(l.end)
}

// runEmbedded drives st for the length of w and for at least simOps ops,
// whichever ends later.
func runEmbedded(st stepper, w window, simOps int64, snap func() simSnap, atSimEnd func()) *embeddedRun {
	l := newEmbeddedLoop(st, w, simOps, snap, atSimEnd)
	l.ruler = theRuler()
	for !l.step() {
	}
	return l.run
}

// interleave drives several loops over the same op stream in lock step, a
// short chunk of ops at a time in rotation, until each has finished. The
// arms of a comparison then share whatever the host was doing at the time:
// on a shared box two runs seconds apart differ by more than the layers
// being subtracted, two runs milliseconds apart do not.
func interleave(loops ...*embeddedLoop) {
	const chunk = 500
	done := make([]bool, len(loops))
	for left := len(loops); left > 0; {
		for i, l := range loops {
			for n := 0; n < chunk && !done[i]; n++ {
				if done[i] = l.step(); done[i] {
					left--
				}
			}
		}
	}
}

// setupTimes is the set-up time of one run: the median of several set-ups,
// each at the ruler's nominal speed, and as the clock read it.
type setupTimes struct{ nominal, raw summary }

func (t setupTimes) emit(r *result) {
	r.e2e("setup_s", t.nominal)
	r.setupRaw = t.raw.Median
}

// setupRuler times one set-up at the ruler's speed. A set-up is a few
// long calls, so ticks cannot be a millisecond apart: pause, which the
// preload loops call between their chunks, runs a handful, and twenty more
// run before and after. The time inside pause is not set-up time.
type setupRuler struct {
	r           *ruler
	ticks       int64
	tickNS      int64
	pausedNS    int64
	start       time.Time
	raw, atNorm float64 // seconds, once stopped
}

func startSetup() *setupRuler {
	s := &setupRuler{r: theRuler()}
	s.run(20)
	s.pausedNS = 0
	s.start = time.Now()
	return s
}

func (s *setupRuler) run(n int) {
	t0 := time.Now()
	s.tickNS += s.r.coldTicks(n)
	s.ticks += int64(n)
	s.pausedNS += int64(time.Since(t0))
}

func (s *setupRuler) pause() { s.run(6) }

func (s *setupRuler) stop() {
	s.raw = (time.Since(s.start) - time.Duration(s.pausedNS)).Seconds()
	s.run(20)
	s.atNorm = s.raw / (float64(s.tickNS) / float64(s.ticks) / rulerColdNS)
}

// timeSetups runs setup n times, tearing down all but the last, and
// returns the last one's product with the set-up times. setup calls the
// pause it is handed between the chunks of its preload. Garbage from a
// discarded set-up is collected before the next starts so that peak RSS is
// the steady run's, not an accident of when the collector ran.
func timeSetups[T any](n int, setup func(pause func()) (T, error), teardown func(T)) (T, setupTimes, error) {
	var out T
	var nominal, raw []float64
	for i := 0; i < n; i++ {
		sr := startSetup()
		v, err := setup(sr.pause)
		if err != nil {
			return out, setupTimes{}, err
		}
		sr.stop()
		raw, nominal = append(raw, sr.raw), append(nominal, sr.atNorm)
		if i < n-1 {
			teardown(v)
			runtime.GC()
		} else {
			out = v
		}
	}
	return out, setupTimes{summarise(nominal), summarise(raw)}, nil
}
