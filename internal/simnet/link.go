package simnet

import (
	"time"
)

// LinkStats aggregates what a link did during a run.
type LinkStats struct {
	SentPackets  int64 // packets fully serialized onto the wire
	SentBytes    int64
	Delivered    int64 // packets handed to the destination
	LostPackets  int64 // packets dropped by the random-loss process
	QueueDrops   int64 // packets rejected by the queue
	FilterDrops  int64 // packets dropped by the attached PacketFilter
	FilterDups   int64 // extra deliveries injected by the PacketFilter
	MaxQueueLen  int
	MaxQueueByte int
}

// Verdict is a PacketFilter's decision for one packet about to propagate.
// Corruption has no byte-level representation in the simulator, so filters
// model it as a drop (the receiver's integrity check would discard the
// frame anyway) and keep their own corruption counter.
type Verdict struct {
	Drop       bool
	Duplicate  bool          // deliver a second copy at the same time
	ExtraDelay time.Duration // added to the propagation delay
}

// PacketFilter decides, per packet, how an external fault process (e.g.
// the internal/faults engine) impairs a link. It runs on the simulator
// goroutine at serialization time and composes with the link's own loss
// and jitter models.
type PacketFilter interface {
	Filter(pkt *Packet, now time.Duration) Verdict
}

// Link is a unidirectional store-and-forward link: a queue, a serializer
// running at Rate bits/s, a propagation delay with optional jitter, and a
// random loss process. Links are shared objects: any number of senders may
// Send into the same link, which is how competing flows contend for one
// bottleneck (Figure 3).
type Link struct {
	sim *Sim

	rate   float64       // bits per second
	delay  time.Duration // one-way propagation delay
	jitter time.Duration // extra delay uniform in [0, jitter)
	lossP  float64       // per-packet loss probability on the wire
	queue  Queue
	dst    Handler
	busy   bool
	stats  LinkStats
	filter PacketFilter // optional external fault process
	name   string

	txNext func()    // startTx, bound once: re-arming the serializer allocates nothing
	free   []*flight // recycled in-flight records
}

// flight is one packet propagating on the wire: a pooled record whose
// arrival callback is bound once, so scheduling a delivery costs no closure.
type flight struct {
	l      *Link
	pkt    *Packet
	arrive func()
}

func (f *flight) land() {
	l, pkt := f.l, f.pkt
	f.pkt = nil
	l.free = append(l.free, f)
	l.stats.Delivered++
	l.dst.Handle(pkt)
}

// propagate schedules pkt's arrival at dst after d.
func (l *Link) propagate(pkt *Packet, d time.Duration) {
	var f *flight
	if n := len(l.free); n > 0 {
		f = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		f = &flight{l: l}
		f.arrive = f.land
	}
	f.pkt = pkt
	l.sim.Schedule(d, f.arrive)
}

// PayloadCloner is implemented by payloads that two deliveries must not
// share (pooled ones the receiver recycles): a link that duplicates a packet
// gives the copy ClonePayload's result instead of the original's payload.
type PayloadCloner interface {
	ClonePayload() any
}

// PayloadReleaser is the sibling of PayloadCloner, for payloads their owner
// recycles: a packet the link loses, filters or drops at the tail reaches no
// handler, so the link hands its payload back with ReleasePayload instead.
type PayloadReleaser interface {
	ReleasePayload()
}

// release hands back the payload of a packet that ends on this link.
func release(pkt *Packet) {
	if r, ok := pkt.Payload.(PayloadReleaser); ok {
		r.ReleasePayload()
	}
}

// LinkOption configures a Link.
type LinkOption func(*Link)

// WithQueue sets the buffering discipline (default: DropTail of 1000
// packets, the paper's "oversized kernel buffer").
func WithQueue(q Queue) LinkOption { return func(l *Link) { l.queue = q } }

// WithJitter adds a uniform extra delay in [0, j) per packet.
func WithJitter(j time.Duration) LinkOption { return func(l *Link) { l.jitter = j } }

// WithLoss sets the per-packet random loss probability.
func WithLoss(p float64) LinkOption { return func(l *Link) { l.lossP = p } }

// WithName labels the link for diagnostics.
func WithName(name string) LinkOption { return func(l *Link) { l.name = name } }

// NewLink creates a link of rate bits/s and one-way propagation delay d,
// delivering to dst.
func NewLink(sim *Sim, rate float64, d time.Duration, dst Handler, opts ...LinkOption) *Link {
	l := &Link{
		sim:   sim,
		rate:  rate,
		delay: d,
		dst:   dst,
		queue: NewDropTail(1000),
	}
	l.txNext = l.startTx
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Name returns the diagnostic label.
func (l *Link) Name() string { return l.name }

// Rate returns the current serialization rate in bits/s.
func (l *Link) Rate() float64 { return l.rate }

// SetRate changes the serialization rate for future transmissions. Channel
// models use this to emulate rate adaptation and fading.
func (l *Link) SetRate(bps float64) { l.rate = bps }

// SetDelay changes the propagation delay for future deliveries.
func (l *Link) SetDelay(d time.Duration) { l.delay = d }

// SetJitter changes the uniform per-packet extra-delay width for future
// transmissions (handover scenarios swap the whole radio profile at once).
func (l *Link) SetJitter(j time.Duration) { l.jitter = j }

// SetLoss changes the random loss probability.
func (l *Link) SetLoss(p float64) { l.lossP = p }

// Loss returns the current random loss probability.
func (l *Link) Loss() float64 { return l.lossP }

// SetFilter installs (or, with nil, removes) an external per-packet fault
// process on a live link. Scenarios use this to switch burst-loss regimes
// on and off mid-run; packets already past serialization are unaffected.
func (l *Link) SetFilter(f PacketFilter) { l.filter = f }

// Queue exposes the attached queue (for measurement).
func (l *Link) Queue() Queue { return l.queue }

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// Handle lets a Link act as a Handler so links can be chained directly.
func (l *Link) Handle(pkt *Packet) { l.Send(pkt) }

// Send enqueues pkt and starts the serializer if idle.
func (l *Link) Send(pkt *Packet) {
	if !l.queue.Enqueue(pkt, l.sim.Now()) {
		l.stats.QueueDrops++
		release(pkt)
		return
	}
	if n := l.queue.Len(); n > l.stats.MaxQueueLen {
		l.stats.MaxQueueLen = n
	}
	if b := l.queue.Bytes(); b > l.stats.MaxQueueByte {
		l.stats.MaxQueueByte = b
	}
	if !l.busy {
		l.startTx()
	}
}

func (l *Link) startTx() {
	pkt := l.queue.Dequeue(l.sim.Now())
	if pkt == nil {
		l.busy = false
		return
	}
	l.busy = true
	txTime := l.serialization(pkt.Size)
	l.stats.SentPackets++
	l.stats.SentBytes += int64(pkt.Size)

	// Wire propagation: decide loss and delivery time now, at the head of
	// serialization. Without jitter the wire is FIFO; with it, each packet
	// draws its own extra delay, so a later packet can overtake an earlier
	// one whose draw was larger (TestLinkJitterReorders).
	lost := l.lossP > 0 && l.sim.Rand().Float64() < l.lossP
	extra := time.Duration(0)
	if l.jitter > 0 {
		extra = time.Duration(l.sim.Rand().Int63n(int64(l.jitter)))
	}
	arrive := txTime + l.delay + extra
	filtered := false
	duplicate := false
	if l.filter != nil && !lost {
		v := l.filter.Filter(pkt, l.sim.Now())
		filtered = v.Drop
		if !filtered {
			arrive += v.ExtraDelay
			duplicate = v.Duplicate
		}
	}
	switch {
	case lost:
		l.stats.LostPackets++
		release(pkt)
	case filtered:
		l.stats.FilterDrops++
		release(pkt)
	default:
		l.propagate(pkt, arrive)
		if duplicate {
			dup := *pkt
			if c, ok := pkt.Payload.(PayloadCloner); ok {
				dup.Payload = c.ClonePayload()
			}
			l.stats.FilterDups++
			l.propagate(&dup, arrive)
		}
	}
	l.sim.Schedule(txTime, l.txNext)
}

func (l *Link) serialization(size int) time.Duration {
	if l.rate <= 0 {
		return 0
	}
	return time.Duration(float64(size*8) / l.rate * float64(time.Second))
}
