package marsim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"marnet/internal/obs"
	"marnet/internal/simnet"
	"marnet/internal/trace"
	"marnet/internal/wire"
)

// stampLen is how many leading bytes of every payload Send stamps with its
// virtual send time, which is what Tally measures latency from.
const stampLen = 8

// Send stamps an n-byte payload (at least stampLen) with the simulation's
// current time and sends it on the stream. It reports whether the conn
// admitted it; false means graceful degradation shed it.
func Send(sim *simnet.Sim, conn *wire.Conn, stream uint16, n int) bool {
	p := make([]byte, n)
	if n < stampLen {
		p = make([]byte, stampLen)
	}
	binary.LittleEndian.PutUint64(p, uint64(sim.Now()))
	ok, err := conn.Send(stream, p)
	return ok && err == nil
}

// Tally is the receive side of a measured session: per stream, what
// arrived within the stream's deadline, what arrived late, the one-way
// latency from the time Send stamped, and optionally goodput. Install
// OnMessage as the receiving conn's wire.Config.OnMessage; the conn has
// already dropped duplicates.
type Tally struct {
	sim     *simnet.Sim
	streams map[uint16]*StreamTally
}

// StreamTally is one stream's receive-side record.
type StreamTally struct {
	Deadline  time.Duration // zero: nothing is late
	Delivered int64         // arrived within the deadline
	Late      int64
	Latency   trace.DurStats // of the in-time arrivals
	// Goodput, when set, bins the payload bytes that arrived in time.
	Goodput *trace.Throughput
}

// NewTally keeps a record per stream; the specs the sender declared give
// the deadlines.
func NewTally(sim *simnet.Sim, specs ...wire.StreamSpec) *Tally {
	t := &Tally{sim: sim, streams: make(map[uint16]*StreamTally)}
	for _, s := range specs {
		t.Stream(s.ID).Deadline = s.Deadline
	}
	return t
}

// Stream returns the record of one stream, empty if nothing arrived yet.
func (t *Tally) Stream(id uint16) *StreamTally {
	st, ok := t.streams[id]
	if !ok {
		st = &StreamTally{}
		t.streams[id] = st
	}
	return st
}

// OnMessage files one delivered datagram.
func (t *Tally) OnMessage(m wire.Message) {
	if len(m.Payload) < stampLen {
		return
	}
	st := t.Stream(m.Stream)
	now := t.sim.Now()
	lat := now - time.Duration(binary.LittleEndian.Uint64(m.Payload))
	if st.Deadline > 0 && lat > st.Deadline {
		st.Late++
		return
	}
	st.Delivered++
	st.Latency.Observe(lat)
	if st.Goodput != nil {
		st.Goodput.Record(now, len(m.Payload))
	}
}

// LinkSession is a one-way measured ARTP session over simnet links: the
// client conn sends, the server conn acknowledges and tallies.
type LinkSession struct {
	Client *wire.Conn
	Server *wire.Conn
	Tally  *Tally
}

// DialLinks opens a LinkSession on a duplex path the caller built: the
// client at addr sends into up and is registered on clientMux, the server
// at addr+1 answers into down and is registered on serverMux. The client
// declares cfg's streams, whose deadlines the server's Tally applies; both
// conns run on the simulation's clock. The session is unsealed (a Key in
// cfg is ignored), so neither conn can fail to open.
func DialLinks(sim *simnet.Sim, addr simnet.Addr, up, down simnet.Handler, clientMux, serverMux *simnet.Demux, cfg wire.Config) *LinkSession {
	clock := NewClock(sim)
	cep, sep := NewLinkEndpoint(addr, up), NewLinkEndpoint(addr+1, down)
	clientMux.Register(addr, cep)
	serverMux.Register(addr+1, sep)
	s := &LinkSession{Tally: NewTally(sim, cfg.Streams...)}
	s.Server, _ = wire.ListenVia(sep, wire.Config{Clock: clock, OnMessage: s.Tally.OnMessage})
	cfg.Clock, cfg.Key = clock, nil
	s.Client, _ = wire.DialVia(cep, LinkAddr(addr+1), cfg)
	return s
}

// DialPaths is DialLinks over several paths (wire.DialPaths): one client
// path per uplink in ups, at addresses addr, addr+2, ... on clientMux, named
// path0, path1, ..., all answered by a server at addr+1 sending into down.
// opts keeps its policy (FEC, striping, OnPathState); DialPaths fills in
// the session id (addr, unless set).
func DialPaths(sim *simnet.Sim, addr simnet.Addr, down simnet.Handler, clientMux, serverMux *simnet.Demux, opts wire.PathOptions, cfg wire.Config, ups ...simnet.Handler) (*LinkSession, error) {
	clock := NewClock(sim)
	paths := make([]wire.PathConf, len(ups))
	for i, up := range ups {
		a := addr + simnet.Addr(2*i)
		ep := NewLinkEndpoint(a, up)
		clientMux.Register(a, ep)
		paths[i] = wire.PathConf{Name: fmt.Sprintf("path%d", i), PC: ep}
	}
	if opts.Session == 0 {
		opts.Session = uint64(addr)
	}
	sep := NewLinkEndpoint(addr+1, down)
	serverMux.Register(addr+1, sep)
	s := &LinkSession{Tally: NewTally(sim, cfg.Streams...)}
	s.Server, _ = wire.ListenVia(sep, wire.Config{Clock: clock, OnMessage: s.Tally.OnMessage})
	cfg.Clock, cfg.Key = clock, nil
	var err error
	if s.Client, err = wire.DialPaths(paths, LinkAddr(addr+1), cfg, opts); err != nil {
		s.Server.Close()
		return nil, err
	}
	return s, nil
}

// Metric reads the value of the series name with labels from reg (0 when
// it is not registered): what a scrape would report at this instant.
func Metric(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	for _, p := range reg.Gather() {
		if p.Name == name && slices.Equal(p.Labels, labels) {
			return p.Value
		}
	}
	return 0
}
