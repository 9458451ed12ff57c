package faults

import (
	"container/heap"
	"fmt"
	"net"
	"sync"
	"time"

	"marnet/internal/vclock"
)

// Config configures a Relay: a seed for the impairment randomness, one
// DirConfig per direction, and an optional scripted timeline.
type Config struct {
	Seed     int64
	Up, Down DirConfig
	Timeline []Event
	// Clock is the relay's time source (default the system clock). Every
	// timestamp the relay takes — engine decision times, delay-queue due
	// times, timeline offsets — comes from this one source, so due-time
	// arithmetic stays on the clock's monotonic reading and never mixes in
	// a wall-clock step.
	Clock vclock.Clock
}

// Relay is a UDP impairment middlebox: it forwards datagrams between a
// client (learned from the first non-upstream datagram) and an upstream
// server, applying the configured impairments per direction. All
// forwarding — even undelayed — funnels through a single time-ordered
// delay queue, so packets with equal delays leave in arrival order and
// reordering happens only when the engine decides it should.
type Relay struct {
	sock *net.UDPConn

	mu       sync.Mutex
	upstream *net.UDPAddr
	wasUp    map[string]bool // every address that has been upstream
	client   *net.UDPAddr
	engines  [2]*engine // indexed by Direction (Up, Down)
	dq       delayHeap
	seq      uint64
	closed   bool
	swaps    int64

	clock vclock.Clock
	start time.Time
	kick  chan struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// NewRelay starts an impairment relay on a random loopback port toward
// upstream.
func NewRelay(upstream string, cfg Config) (*Relay, error) {
	uaddr, err := net.ResolveUDPAddr("udp", upstream)
	if err != nil {
		return nil, fmt.Errorf("faults: resolve upstream: %w", err)
	}
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("faults: relay listen: %w", err)
	}
	clock := vclock.OrSystem(cfg.Clock)
	r := &Relay{
		sock:     sock,
		upstream: uaddr,
		wasUp:    map[string]bool{uaddr.String(): true},
		clock:    clock,
		start:    clock.Now(),
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	r.engines[Up] = newEngine(cfg.Up, cfg.Seed)
	r.engines[Down] = newEngine(cfg.Down, cfg.Seed+1)
	// Events due at the start hold before the first packet is read, not
	// whenever the timeline goroutine first runs.
	events := sortEvents(cfg.Timeline)
	for len(events) > 0 && events[0].At <= 0 {
		r.applyEvent(events[0])
		events = events[1:]
	}
	r.wg.Add(2)
	go r.readLoop()
	go r.dispatchLoop()
	if len(events) > 0 {
		r.wg.Add(1)
		go r.timelineLoop(events)
	}
	return r, nil
}

// Addr returns the relay's listening address (give this to the client).
func (r *Relay) Addr() string { return r.sock.LocalAddr().String() }

// SetUpstream redirects future client traffic to a new server address —
// the real-socket version of a server restart or migration. Packets
// already in the delay queue still go to the old destination.
func (r *Relay) SetUpstream(addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("faults: resolve upstream: %w", err)
	}
	r.mu.Lock()
	r.upstream = uaddr
	r.wasUp[uaddr.String()] = true
	r.swaps++
	r.mu.Unlock()
	return nil
}

// Swaps reports how many upstream redirections have been applied.
func (r *Relay) Swaps() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.swaps
}

// SetBlackhole toggles a total-drop window on one or both directions.
func (r *Relay) SetBlackhole(dir Direction, drop bool) {
	r.mu.Lock()
	for _, e := range r.dirEnginesLocked(dir) {
		e.cfg.Blackhole = drop
	}
	r.mu.Unlock()
}

func (r *Relay) dirEnginesLocked(dir Direction) []*engine {
	switch dir {
	case Up:
		return []*engine{r.engines[Up]}
	case Down:
		return []*engine{r.engines[Down]}
	default:
		return []*engine{r.engines[Up], r.engines[Down]}
	}
}

// Counters returns a direction's tallies (Both sums the two directions).
func (r *Relay) Counters(dir Direction) Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out Counters
	for _, e := range r.dirEnginesLocked(dir) {
		c := e.counters()
		out.Received += c.Received
		out.Forwarded += c.Forwarded
		out.Dropped += c.Dropped
		out.RateDropped += c.RateDropped
		out.Blackholed += c.Blackholed
		out.Corrupted += c.Corrupted
		out.Duplicated += c.Duplicated
		out.Reordered += c.Reordered
	}
	return out
}

// TotalDropped sums every drop category across both directions.
func (r *Relay) TotalDropped() int64 {
	c := r.Counters(Both)
	return c.Dropped + c.RateDropped + c.Blackholed
}

// Close stops the relay.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.done)
	r.mu.Unlock()
	err := r.sock.Close()
	r.wg.Wait()
	return err
}

// delayed is one queued datagram awaiting its departure time.
type delayed struct {
	due time.Time
	seq uint64 // FIFO tiebreak for equal departure times
	pkt []byte
	dst *net.UDPAddr
}

type delayHeap []*delayed

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)   { *h = append(*h, x.(*delayed)) }
func (h *delayHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

func (r *Relay) readLoop() {
	defer r.wg.Done()
	buf := make([]byte, 65535)
	for {
		n, raddr, err := r.sock.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		// One clock read per packet: the engine's elapsed-time decision and
		// the delay-queue due time derive from the same instant, so a packet
		// can never be stamped due before the decision that queued it.
		nowT := r.clock.Now()
		now := nowT.Sub(r.start)

		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		fromUpstream := r.wasUp[raddr.String()]
		var dir Direction
		var dst *net.UDPAddr
		if fromUpstream {
			dir, dst = Down, r.client
		} else {
			r.client = raddr
			dir, dst = Up, r.upstream
		}
		eng := r.engines[dir]
		v := eng.decide(now, n)
		if v.drop || dst == nil {
			r.mu.Unlock()
			continue
		}
		pkt := append([]byte(nil), buf[:n]...)
		if v.corrupt {
			eng.corruptBit(pkt)
		}
		due := nowT.Add(v.delay)
		r.pushLocked(&delayed{due: due, pkt: pkt, dst: dst})
		if v.dup {
			r.pushLocked(&delayed{due: due, pkt: append([]byte(nil), pkt...), dst: dst})
		}
		r.mu.Unlock()

		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
}

func (r *Relay) pushLocked(d *delayed) {
	r.seq++
	d.seq = r.seq
	heap.Push(&r.dq, d)
}

// dispatchLoop is the single writer draining the delay queue in (due,
// arrival) order, which keeps equal-delay forwarding deterministic.
func (r *Relay) dispatchLoop() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		var item *delayed
		wait := time.Duration(-1)
		if len(r.dq) > 0 {
			head := r.dq[0]
			// due carries the clock's monotonic reading; Sub against the
			// same clock is immune to wall-clock steps between enqueue and
			// dispatch (time.Until would be too, but only by accident of
			// both readings carrying monotonic parts).
			if d := head.due.Sub(r.clock.Now()); d <= 0 {
				item = heap.Pop(&r.dq).(*delayed)
			} else {
				wait = d
			}
		}
		r.mu.Unlock()

		if item != nil {
			r.sock.WriteToUDP(item.pkt, item.dst) //nolint:errcheck // best-effort relay
			continue
		}
		if wait < 0 {
			select {
			case <-r.kick:
			case <-r.done:
				return
			}
			continue
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-r.kick:
			timer.Stop()
		case <-r.done:
			timer.Stop()
			return
		}
	}
}

// timelineLoop applies scripted events at their elapsed times.
func (r *Relay) timelineLoop(events []Event) {
	defer r.wg.Done()
	for _, ev := range events {
		if wait := r.start.Add(ev.At).Sub(r.clock.Now()); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-r.done:
				timer.Stop()
				return
			}
		}
		r.applyEvent(ev)
	}
}

func (r *Relay) applyEvent(ev Event) {
	if ev.Upstream != "" {
		r.SetUpstream(ev.Upstream) //nolint:errcheck // bad scripted addr = no-op
	}
	r.mu.Lock()
	for _, e := range r.dirEnginesLocked(ev.Dir) {
		if ev.Set != nil {
			e.setConfig(*ev.Set)
		}
		if ev.Blackhole != nil {
			e.cfg.Blackhole = *ev.Blackhole
		}
	}
	r.mu.Unlock()
}
