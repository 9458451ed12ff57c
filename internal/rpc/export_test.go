package rpc

import (
	"fmt"
	"time"

	"marnet/internal/overload"
	"marnet/internal/wire"
)

// ServerConns returns the server's live client connections, for tests that
// read a conn's transport state (budget, SRTT) next to the rpc counters.
func ServerConns(s *Server) []*wire.Conn { return s.mux.Conns() }

// Probe asks the server for its health state (MethodProbe), bypassing
// admission control. A draining answer is cached as KnownDraining.
func (c *Client) Probe(timeout time.Duration) (overload.Probe, error) {
	payload, err := c.Call(MethodProbe, nil, timeout)
	if err != nil {
		return 0, err
	}
	if len(payload) != 1 {
		return 0, fmt.Errorf("rpc: malformed probe response (%d bytes)", len(payload))
	}
	p := overload.Probe(payload[0])
	if p == overload.ProbeDraining {
		c.markDraining()
	}
	return p, nil
}

// Clients exposes the per-server clients (primary first).
func (fc *FailoverClient) Clients() []*Client { return fc.clients }
