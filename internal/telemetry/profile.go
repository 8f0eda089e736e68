package telemetry

import (
	"time"

	"rrtcp/internal/sim"
)

// AttachSchedulerProfile installs a profiling hook on the scheduler
// that publishes one KSchedProfile event every `every` processed
// events: total events processed (Seq), current pending events (A),
// and wall-clock seconds spent per simulated second since the previous
// sample (B; the first sample rates against the attach instant, and B
// is 0 when sim time stood still). Like Scheduler.HeapHighWater, A
// counts armed timers across both timer classes plus one delivery
// entry per link with packets on the wire, not one per packet.
//
// The wall-time attribute is the one intentionally nondeterministic
// value in the event stream — it measures the simulator, not the
// simulation — so tests should assert on Seq/A only.
func AttachSchedulerProfile(sched *sim.Scheduler, bus *Bus, every uint64) {
	if sched == nil || !bus.Enabled() {
		return
	}
	if every == 0 {
		every = 4096
	}
	lastWall := time.Now()
	var lastSim sim.Time
	sched.SetProfileHook(every, func(now sim.Time, processed uint64, pending int) {
		wall := time.Now()
		var perSimSec float64
		if simDelta := now - lastSim; simDelta > 0 {
			perSimSec = wall.Sub(lastWall).Seconds() / simDelta.Seconds()
		}
		lastWall, lastSim = wall, now
		bus.Publish(Event{
			At:   now,
			Comp: CompSim,
			Kind: KSchedProfile,
			Flow: NoFlow,
			Seq:  int64(processed),
			A:    float64(pending),
			B:    perSimSec,
		})
	})
}
