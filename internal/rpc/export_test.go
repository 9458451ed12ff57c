package rpc

import "marnet/internal/wire"

// ServerConns returns the server's live client connections, for tests that
// read a conn's transport state (budget, SRTT) next to the rpc counters.
func ServerConns(s *Server) []*wire.Conn { return s.mux.Conns() }
