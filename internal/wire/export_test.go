package wire

import "testing"

// PoisonRecvBuffers turns receive-buffer poisoning on for the rest of t
// (it is on by default only under the race detector), for tests outside
// the package that check the buffer contract on other transports.
func PoisonRecvBuffers(t testing.TB) {
	if poisonRecvBuffers {
		return
	}
	poisonRecvBuffers = true
	t.Cleanup(func() { poisonRecvBuffers = false })
}

// QueuedFrames reports how many frames are waiting in the pacing bands —
// the sender-side backlog a saturation workload watches to keep the pipe
// full without unbounded queue growth.
func (c *Conn) QueuedFrames() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for b := range c.core.bands {
		n += c.core.bands[b].len()
	}
	return n
}

// seal encrypts payload under a fresh nonce, binding the header, and
// returns nonce||ciphertext||tag in a fresh buffer. The fast path uses
// appendSealedFrame instead; this form remains for tests and tools that
// want the sealed payload alone.
func (s *sealer) seal(h Header, payload []byte) ([]byte, error) {
	out := make([]byte, nonceLen, nonceLen+len(payload)+gcmTagLen)
	s.putNonce(out[:nonceLen])
	return s.aead.Seal(out, out[:nonceLen], payload, headerAAD(h)), nil
}

// open authenticates and decrypts a sealed payload.
func (s *sealer) open(h Header, sealed []byte) ([]byte, error) {
	if len(sealed) < sealedOver {
		return nil, ErrAuthFailed
	}
	plain, err := s.aead.Open(nil, sealed[:nonceLen], sealed[nonceLen:], headerAAD(h))
	if err != nil {
		return nil, ErrAuthFailed
	}
	return plain, nil
}

// DemuxStats is a snapshot of the demux packet accounting.
type DemuxStats struct {
	Enqueued        int64 // packets copied into a shard queue
	Delivered       int64 // packets handed to a shard's recv callback
	DroppedFull     int64 // shard queue full at ingest
	DroppedOversize int64 // datagram larger than a delivery buffer
	Sweep           int64 // queued at teardown, recycled undelivered
}

// Stats snapshots the demux packet accounting.
func (d *shardDemux) Stats() DemuxStats {
	return DemuxStats{
		Enqueued:        d.enqueued.Load(),
		Delivered:       d.delivered.Load(),
		DroppedFull:     d.droppedFull.Load(),
		DroppedOversize: d.droppedOversize.Load(),
		Sweep:           d.sweep.Load(),
	}
}

func (q *frameQueue) len() int { return len(q.buf) - q.head }

// State reports the current liveness judgement.
func (c *Conn) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.state
}

// headerAAD renders the header bytes used as associated data. It must
// match the header bytes of the final frame except the payload length
// field (which describes the sealed length and is therefore written
// after sealing); the length is excluded from authentication. Both the
// legacy and the traced layouts keep the payload length as the last two
// header bytes, so stripping them works for every version — and the trace
// ids and the acknowledgement block are authenticated along with the rest.
func headerAAD(h Header) []byte {
	frame, err := AppendFrame(nil, h, nil)
	if err != nil {
		return nil
	}
	return frame[:headerLen(h)-2] // strip the 2-byte payload length
}

// DecodeNackPayload parses a NACK payload into a fresh slice, with
// nackLen's checks: the NACK tests and fuzzers read a payload whole, where
// the conn reads one in place.
func DecodeNackPayload(p []byte) ([]int64, error) {
	n, err := nackLen(p)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = nackEntry(p, i)
	}
	return out, nil
}
