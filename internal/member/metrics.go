package member

import "pdcedu/internal/obs"

// Membership metric names:
//
//	member.probe.rtt            histogram: direct-ping ack latency, ns
//	member.transitions.suspect  counter: members entering suspicion
//	member.transitions.dead     counter: members declared dead
//	member.transitions.refute   counter: this node refuting its own death
//
// The probe RTT histogram is the failure detector's own latency
// honesty: its p99 against the probe timeout (half of ProbeInterval)
// says how much headroom the detector has before a slow-but-alive peer
// starts getting suspected.
var (
	probeRTT     = obs.Default().Histogram("member.probe.rtt")
	suspectTrans = obs.Default().Counter("member.transitions.suspect")
	deadTrans    = obs.Default().Counter("member.transitions.dead")
	refuteTrans  = obs.Default().Counter("member.transitions.refute")
)
