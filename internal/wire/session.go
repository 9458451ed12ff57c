package wire

import (
	"math/rand"
	"sync"
	"time"

	"marnet/internal/obs"
	"marnet/internal/vclock"
)

// ConnDialer builds one connection attempt for a session. The session
// supplies the fully wired Config (callbacks bound to the right
// generation); the dialer supplies the transport — a fresh UDP socket in
// production, a fresh simulated endpoint under internal/marsim.
type ConnDialer func(cfg Config) (*Conn, error)

// SessionConfig tunes automatic session resumption.
type SessionConfig struct {
	// RedialMin/RedialMax bound the exponential re-dial backoff
	// (defaults 50 ms / 1 s).
	RedialMin time.Duration
	RedialMax time.Duration
	// Seed drives the backoff jitter, keeping chaos runs reproducible.
	Seed int64
	// OnStateChange observes the session's liveness: StateDead when an
	// outage is detected (a re-dial starts immediately), StateActive when
	// the path recovers, StateClosed when Close is called. Internal re-dial
	// churn is not forwarded.
	OnStateChange func(State)
}

// confirmPeriod is how often a freshly resumed connection is polled for
// evidence of actual reachability.
const confirmPeriod = 10 * time.Millisecond

// Session is a client-side connection that survives outages: it watches
// the underlying Conn's keepalive verdict and, on death, re-dials and
// re-establishes its streams while preserving app-level sequence numbers —
// so a server that kept per-peer receive state across the outage does not
// mistake resumed traffic for duplicates. This is the paper's graceful-
// degradation doctrine applied to the session itself: an outage costs
// in-flight frames, never the session.
//
// All resumption machinery (re-dial backoff, recovery confirmation) runs
// as AfterFunc chains on the connection's clock, so sessions are fully
// deterministic under a virtual clock.
type Session struct {
	base  Config
	scfg  SessionConfig
	dial  ConnDialer
	clock vclock.Clock

	mu         sync.Mutex
	conn       *Conn
	gen        int
	closed     bool
	down       bool // true from outage detection until liveness is confirmed
	reconnects int64
	rng        *rand.Rand

	// Pending resumption timers (guarded by mu): the backoff before the
	// next re-dial attempt, and the recovery-confirmation poll.
	redialTimer  vclock.Timer
	confirmTimer vclock.Timer
}

// DialSession dials addr with automatic resumption. cfg.Keepalive is the
// outage detector; if unset it defaults to 250 ms (three silent intervals
// mean death, so a dead path is declared within ~750 ms). cfg.OnStateChange is
// reserved for the session's own use — observe via scfg.OnStateChange.
func DialSession(addr string, cfg Config, scfg SessionConfig) (*Session, error) {
	return DialSessionWith(func(c Config) (*Conn, error) { return Dial(addr, c) }, cfg, scfg)
}

// DialSessionWith is DialSession over a caller-supplied dialer: each
// connection attempt (the initial one and every re-dial) invokes dial with
// the session's per-generation Config. The dialer must produce a fresh
// transport per call, mirroring how Dial binds a fresh UDP socket.
func DialSessionWith(dial ConnDialer, cfg Config, scfg SessionConfig) (*Session, error) {
	if cfg.Keepalive <= 0 {
		cfg.Keepalive = 250 * time.Millisecond
	}
	if scfg.RedialMin <= 0 {
		scfg.RedialMin = 50 * time.Millisecond
	}
	if scfg.RedialMax <= 0 {
		scfg.RedialMax = time.Second
	}
	s := &Session{
		base:  cfg,
		scfg:  scfg,
		dial:  dial,
		clock: vclock.OrSystem(cfg.Clock),
		rng:   rand.New(rand.NewSource(scfg.Seed)),
	}
	conn, err := dial(s.cfgFor(0))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.gen != 0 {
		// The connection was declared dead before we could install it (a
		// keepalive verdict can fire mid-dial on a pathological scheduler);
		// the resume machinery already owns the session — this conn is
		// superseded.
		s.mu.Unlock()
		conn.Close() //nolint:errcheck // superseded before install
		return s, nil
	}
	s.conn = conn
	s.mu.Unlock()
	return s, nil
}

// cfgFor binds the connection callbacks to generation gen so events from
// superseded connections cannot trigger spurious resumptions.
func (s *Session) cfgFor(gen int) Config {
	cfg := s.base
	cfg.OnStateChange = func(st State) {
		if st != StateActive && st != StateDead {
			return // internal closes are session bookkeeping
		}
		s.mu.Lock()
		if gen != s.gen || s.closed {
			s.mu.Unlock()
			return
		}
		// Collapse per-connection churn into session-level edges: one Dead
		// per outage, one Active per recovery.
		var notify bool
		if st == StateDead {
			notify = !s.down
			s.down = true
		} else {
			notify = s.down
			s.down = false
		}
		cb := s.scfg.OnStateChange
		s.mu.Unlock()
		if notify && cb != nil {
			cb(st)
		}
		if st == StateDead {
			s.resume(gen)
		}
	}
	return cfg
}

// confirmFire polls a freshly resumed connection for evidence the peer is
// actually reachable again (a re-dial succeeds even into a blackhole — UDP
// has no handshake) and fires the session's StateActive edge once a frame
// arrives.
func (s *Session) confirmFire(conn *Conn, gen int, since time.Time) {
	s.mu.Lock()
	s.confirmTimer = nil
	if gen != s.gen || s.closed {
		s.mu.Unlock()
		return
	}
	if !conn.LastActivity().After(since) {
		s.confirmTimer = s.clock.AfterFunc(confirmPeriod, func() { s.confirmFire(conn, gen, since) })
		s.mu.Unlock()
		return
	}
	notify := s.down
	s.down = false
	cb := s.scfg.OnStateChange
	s.mu.Unlock()
	if notify && cb != nil {
		cb(StateActive)
	}
}

// resume replaces a dead connection, carrying forward stream sequence
// numbers, with seeded-jitter exponential backoff between attempts. It is
// called from the dead connection's keepalive callback; the dial attempts
// run inline and retries are scheduled on the clock.
func (s *Session) resume(gen int) {
	s.mu.Lock()
	if s.closed || gen != s.gen {
		s.mu.Unlock()
		return
	}
	s.gen++
	newGen := s.gen
	old := s.conn
	s.mu.Unlock()

	// A session reset is exactly the moment the flight recorder exists
	// for: freeze the ring so the events leading into the dead-peer
	// verdict survive the reconnect churn.
	if r := s.base.Recorder; r != nil {
		r.Record(obs.EvSessionReset, 0, 0, uint32(newGen), 0)
		r.Freeze("session-reset")
	}

	// old is nil only when the initial dial's connection died before
	// DialSessionWith could install it; there are no sequence numbers to
	// carry forward in that case.
	var seqs map[uint16]int64
	if old != nil {
		seqs = old.streamSeqs()
		old.Close() //nolint:errcheck // superseded connection
	}

	s.redialAttempt(newGen, seqs, s.scfg.RedialMin)
}

// redialAttempt makes one dial attempt for generation gen; on failure it
// schedules the next attempt after a seeded-jitter backoff.
func (s *Session) redialAttempt(gen int, seqs map[uint16]int64, backoff time.Duration) {
	s.mu.Lock()
	s.redialTimer = nil
	if s.closed || gen != s.gen {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	conn, err := s.dial(s.cfgFor(gen))
	if err == nil {
		conn.setStreamSeqs(seqs)
		s.mu.Lock()
		if s.closed || gen != s.gen {
			s.mu.Unlock()
			conn.Close() //nolint:errcheck // racing shutdown
			return
		}
		s.conn = conn
		s.reconnects++
		installed := s.clock.Now()
		s.confirmTimer = s.clock.AfterFunc(confirmPeriod, func() { s.confirmFire(conn, gen, installed) })
		s.mu.Unlock()
		return
	}

	s.mu.Lock()
	if s.closed || gen != s.gen {
		s.mu.Unlock()
		return
	}
	sleep := backoff/2 + time.Duration(s.rng.Int63n(int64(backoff/2)+1))
	next := 2 * backoff
	if next > s.scfg.RedialMax {
		next = s.scfg.RedialMax
	}
	s.redialTimer = s.clock.AfterFunc(sleep, func() { s.redialAttempt(gen, seqs, next) })
	s.mu.Unlock()
}

// current returns the live connection.
func (s *Session) current() (*Conn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn, !s.closed
}

// Send submits a datagram on a stream of the current connection. During an
// outage window (the instant between a connection dying and its
// replacement being installed) the send is reported as shed rather than
// failing the session.
func (s *Session) Send(streamID uint16, payload []byte) (bool, error) {
	return s.SendTraced(streamID, payload, 0, 0)
}

// SendTraced is Send with trace context attached (see Conn.SendTraced).
func (s *Session) SendTraced(streamID uint16, payload []byte, traceID, spanID uint64) (bool, error) {
	conn, open := s.current()
	if !open {
		return false, ErrClosed
	}
	ok, err := conn.SendTraced(streamID, payload, traceID, spanID)
	if err == ErrClosed {
		if _, stillOpen := s.current(); stillOpen {
			return false, nil // mid-resume: degrade to shed
		}
	}
	return ok, err
}

// Conn exposes the current underlying connection (for stats and address
// queries; it may be superseded at any moment).
func (s *Session) Conn() *Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn
}

// Stats returns the current connection's stream stats. Counters restart
// from zero after a resumption (sequence numbers do not).
func (s *Session) Stats(streamID uint16) StreamStats {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	return conn.Stats(streamID)
}

// SRTT reports the current connection's smoothed round-trip estimate.
// Counter-like stats restart after a resumption, but SRTT re-converges
// within a few exchanges, so it stays a usable controller signal across
// outages.
func (s *Session) SRTT() time.Duration {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	return conn.SRTT()
}

// LossRate reports the current connection's smoothed per-transmission
// loss rate in [0,1].
func (s *Session) LossRate() float64 {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	return conn.LossRate()
}

// Reconnects reports how many times the session resumed.
func (s *Session) Reconnects() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reconnects
}

// Close shuts the session down permanently.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conn := s.conn
	for _, t := range []vclock.Timer{s.redialTimer, s.confirmTimer} {
		if t != nil {
			t.Stop()
		}
	}
	s.redialTimer, s.confirmTimer = nil, nil
	s.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	if cb := s.scfg.OnStateChange; cb != nil {
		cb(StateClosed)
	}
	return err
}
