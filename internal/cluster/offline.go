package cluster

// Machine availability. The paper leaves failure-aware scheduling to future
// work (§6); the simulator's failure injector uses these hooks to take
// machines out of (and back into) service so schedulers can be studied under
// machine failures. An offline machine offers no free GPUs; GPUs already
// granted there must be released by the caller (the simulator revokes the
// affected apps' allocations when it injects the failure).

// SetOffline marks machine m as failed (offline=true) or recovered
// (offline=false). Marking an unknown machine is a no-op.
func (s *State) SetOffline(m MachineID, offline bool) {
	if int(m) >= 0 && int(m) < len(s.offline) {
		s.offline[m] = offline
	}
}
