package brunet

import (
	"testing"

	"wow/internal/phys"
	"wow/internal/sim"
)

// TestLinkerURIExhaustionGivesUp drives a linker through a target URI list
// where nobody answers: every URI must be exhausted on the §IV-D backoff
// schedule and the attempt abandoned with link.giveup.
func TestLinkerURIExhaustionGivesUp(t *testing.T) {
	r := buildRing(t, 21, 4)
	n := r.nodes[0]

	// Two endpoints on a live host where nothing listens.
	dead := r.net.AddHost("dead", r.site, r.net.Root(), phys.HostConfig{})
	ghost := AddrFromString("ghost")
	uris := []URI{
		{Transport: "udp", EP: phys.Endpoint{IP: dead.IP(), Port: 4001}},
		{Transport: "udp", EP: phys.Endpoint{IP: dead.IP(), Port: 4002}},
	}
	n.startLinker(ghost, uris, StructuredNear)
	if _, active := n.linkers[ghost]; !active {
		t.Fatal("linker did not register")
	}

	// FastTestConfig: LinkResend 200ms ×2 backoff, 3 retries → one URI
	// burns 0.2+0.4+0.8+1.6 = 3 s; two URIs well under a minute.
	r.s.RunFor(sim.Minute)
	if got := n.Stats.Get("link.uri_exhausted"); got != 2 {
		t.Errorf("link.uri_exhausted = %d, want 2 (one per dead URI)", got)
	}
	// Failure taxonomy: silent endpoints are timeouts, not rejects.
	if got := n.Stats.Get("link.uri_exhausted.timeout"); got != 2 {
		t.Errorf("link.uri_exhausted.timeout = %d, want 2", got)
	}
	if got := n.Stats.Get("link.uri_exhausted.reject"); got != 0 {
		t.Errorf("link.uri_exhausted.reject = %d, want 0", got)
	}
	if got := n.Stats.Get("link.giveup"); got != 1 {
		t.Errorf("link.giveup = %d, want 1", got)
	}
	if got := n.Stats.Get("link.giveup.timeout"); got != 1 {
		t.Errorf("link.giveup.timeout = %d, want 1", got)
	}
	if _, active := n.linkers[ghost]; active {
		t.Error("linker still registered after giving up")
	}
	if n.ConnectionTo(ghost) != nil {
		t.Error("connection materialized out of nothing")
	}
}

// TestLinkerResendBackoffProgression pins the resend schedule: requests go
// out at LinkResend·LinkBackoff^i spacing (200ms, 400ms, 800ms, … under
// FastTestConfig), not on a fixed interval.
func TestLinkerResendBackoffProgression(t *testing.T) {
	r := buildRing(t, 22, 4)
	n := r.nodes[0]
	dead := r.net.AddHost("dead", r.site, r.net.Root(), phys.HostConfig{})
	ghost := AddrFromString("ghost")
	base := n.Stats.Get("link.requests")

	n.startLinker(ghost, []URI{{Transport: "udp", EP: phys.Endpoint{IP: dead.IP(), Port: 4001}}}, StructuredNear)
	sent := func() int64 { return n.Stats.Get("link.requests") - base }

	// Resends fire at t = 0.2, 0.6, 1.4 s after the initial send.
	for _, step := range []struct {
		runFor sim.Duration
		want   int64
	}{
		{100 * sim.Millisecond, 1}, // t=0.1s: initial send only
		{200 * sim.Millisecond, 2}, // t=0.3s: first resend at 0.2s
		{200 * sim.Millisecond, 2}, // t=0.5s: second resend not due until 0.6s
		{200 * sim.Millisecond, 3}, // t=0.7s
		{800 * sim.Millisecond, 4}, // t=1.5s: third resend at 1.4s
	} {
		r.s.RunFor(step.runFor)
		if got := sent(); got != step.want {
			t.Fatalf("at t=%s: %d requests sent, want %d", r.s.Now(), got, step.want)
		}
	}
}

// TestBusyRaceRandomizedRestart exercises the §IV-B2 busy path: a linker
// told "busy" yields, then restarts with randomized exponential backoff —
// and must eventually establish the link itself when the peer's symmetric
// attempt never materializes.
func TestBusyRaceRandomizedRestart(t *testing.T) {
	r := buildRing(t, 23, 6)
	a, b := r.nodes[0], r.nodes[1]
	if c := a.ConnectionTo(b.Addr()); c != nil && c.Has(StructuredFar) {
		t.Skip("seed formed the target link already")
	}

	a.startLinker(b.Addr(), b.URIs(), StructuredFar)
	lk, active := a.linkers[b.Addr()]
	if !active {
		t.Fatal("linker did not register")
	}
	// Simulate losing the race: the peer reports its own attempt in
	// flight — but never actually links (the middlebox-defeated case).
	a.handleLinkError(linkError{From: b.Addr(), Token: lk.token, Reason: "busy"})
	if _, still := a.linkers[b.Addr()]; still {
		t.Fatal("busy error did not terminate the yielding linker")
	}
	if a.busyRetry[b.Addr()] != 1 {
		t.Fatalf("busyRetry = %d, want 1", a.busyRetry[b.Addr()])
	}
	if got := a.Stats.Get("link.uri_exhausted.busy"); got != 1 {
		t.Fatalf("link.uri_exhausted.busy = %d, want 1", got)
	}

	// The randomized restart must re-issue the attempt and win.
	r.s.RunFor(30 * sim.Second)
	c := a.ConnectionTo(b.Addr())
	if c == nil || !c.Has(StructuredFar) {
		t.Fatal("restarted linker never established the connection")
	}
	if a.busyRetry[b.Addr()] != 0 {
		t.Errorf("busyRetry not reset after success: %d", a.busyRetry[b.Addr()])
	}
}

// TestRelinkRepairsAfterTransientBlackhole exercises the repair overlord:
// a structured link killed by a transient blackhole (ping timeout, an
// involuntary drop) must be re-established from the cached URIs once the
// network heals, with the relink counters recording the repair.
func TestRelinkRepairsAfterTransientBlackhole(t *testing.T) {
	r := buildRing(t, 24, 8)
	order := r.ringOrder()
	a, b := order[0], order[1]
	if a.ConnectionTo(b.Addr()) == nil {
		t.Fatal("ring neighbors not connected")
	}

	// Blackhole the pair until their connection times out.
	cut := true
	r.net.Perturb = func(_ sim.Time, _ int, src, dst *phys.Host, pm phys.PathModel) (phys.PathModel, bool) {
		if !cut {
			return pm, false
		}
		pair := (src == a.Host() && dst == b.Host()) || (src == b.Host() && dst == a.Host())
		return pm, pair
	}
	deadline := r.s.Now().Add(2 * sim.Minute)
	for a.ConnectionTo(b.Addr()) != nil && r.s.Now() < deadline {
		r.s.RunFor(sim.Second)
	}
	if a.ConnectionTo(b.Addr()) != nil {
		t.Fatal("blackholed link never timed out")
	}

	cut = false
	relinksBefore := a.Stats.Get("relink.success") + b.Stats.Get("relink.success")
	// FastTestConfig RelinkBase is 1s; a few jittered attempts suffice.
	r.s.RunFor(2 * sim.Minute)
	c := a.ConnectionTo(b.Addr())
	if c == nil {
		t.Fatal("repair overlord never re-linked the lost neighbor")
	}
	after := a.Stats.Get("relink.success") + b.Stats.Get("relink.success")
	if after == relinksBefore {
		t.Errorf("relink.success did not advance (a=%s b=%s)", a.Stats.String(), b.Stats.String())
	}
	if a.Stats.Get("relink.attempts")+b.Stats.Get("relink.attempts") == 0 {
		t.Error("no relink.attempts recorded")
	}
}
