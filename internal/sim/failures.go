package sim

import (
	"sort"

	"themis/internal/cluster"
)

// Failure injects a machine failure: at Time the machine goes offline for
// Duration minutes (0 means for good), every allocation on it is revoked (the
// affected apps lose those GPUs immediately and pay the restart overhead),
// and the machine rejoins the free pool when it recovers. Machine must lie in
// the topology; Time and Duration must be finite and non-negative. The paper
// leaves failure-aware scheduling to future work (§6); the injector exists so
// schedulers can be studied under failures and so tests can exercise the
// revocation path.
type Failure struct {
	Time     float64
	Machine  cluster.MachineID
	Duration float64
}

// failureRec is a pending failure together with its heap entry.
type failureRec struct {
	f  Failure
	ev event
}

// recoveryRec is a scheduled end of a failure together with its heap entry.
type recoveryRec struct {
	time    float64
	machine cluster.MachineID
	ev      event
}

// initFailures orders the configured failures, which Config.Validate has
// checked, and enqueues their events.
func (s *Simulator) initFailures() {
	fs := append([]Failure(nil), s.cfg.Failures...)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Time < fs[j].Time })
	for _, f := range fs {
		rec := &failureRec{f: f}
		rec.ev = event{kind: evFailure, time: f.Time, index: -1}
		s.failures = append(s.failures, rec)
		s.events.push(&rec.ev)
	}
}

// processFailures applies any failures or recoveries whose time has come.
func (s *Simulator) processFailures() {
	for len(s.failures) > 0 && s.failures[0].f.Time <= s.now+timeEps {
		rec := s.failures[0]
		s.failures = s.failures[1:]
		s.events.remove(&rec.ev)
		s.failMachine(rec.f.Machine)
		if rec.f.Duration > 0 {
			r := &recoveryRec{time: rec.f.Time + rec.f.Duration, machine: rec.f.Machine}
			r.ev = event{kind: evRecovery, time: r.time, index: -1}
			s.recoveries = append(s.recoveries, r)
			sort.SliceStable(s.recoveries, func(i, j int) bool { return s.recoveries[i].time < s.recoveries[j].time })
			s.events.push(&r.ev)
		}
	}
	for len(s.recoveries) > 0 && s.recoveries[0].time <= s.now+timeEps {
		rec := s.recoveries[0]
		s.recoveries = s.recoveries[1:]
		s.events.remove(&rec.ev)
		s.cs.SetOffline(rec.machine, false)
	}
}

// failMachine takes a machine offline, revoking every allocation on it. It
// reads each app's GPUs there from its Held, which mirrors the cluster state
// (only active apps hold GPUs), so apps are revoked in ID order.
func (s *Simulator) failMachine(m cluster.MachineID) {
	for _, st := range s.active {
		n := st.Held[m]
		if n == 0 {
			continue
		}
		app := string(st.App.ID)
		if err := s.cs.Release(app, cluster.Alloc{m: n}); err != nil {
			panic("sim: revoking failed machine's GPUs: " + err.Error())
		}
		s.leases.Trim(st.App.ID, m, n)
		st.onAllocationChange(s.now, s.cs.HeldInto(st.Held, app), s.cfg.RestartOverhead)
		s.appStateChanged(st)
		s.result.noteAllocation(s.now, st, st.Held)
	}
	s.cs.SetOffline(m, true)
}
