package wire

import "sync"

// Buffer pools for the send fast path. Three object classes recycle
// through here:
//
//   - payload buffers: the private copy Send takes of the caller's bytes
//     (capacity MaxPayload). Ownership follows the frame: a reliable
//     frame's buffer lives in its wpending until the sequence leaves the
//     outstanding map; a best-effort frame's buffer is released by the
//     transmit loop right after the datagram is written.
//   - frame buffers: the full wire image (header + nonce + ciphertext or
//     plain payload) built immediately before the transport write and
//     released immediately after — transports never retain them.
//   - pending records: the wpending bookkeeping structs of reliable
//     frames.
//
// All pools store pointers so Get/Put themselves do not allocate; see
// DESIGN.md §3g for the ownership rules in full.

// maxFrameLen is the largest possible wire frame: a traced header, a full
// acknowledgement block and a full payload.
const maxFrameLen = HeaderLenTraced + maxAckBlockLen + MaxPayload

var payloadPool = sync.Pool{New: func() any {
	b := make([]byte, 0, MaxPayload)
	return &b
}}

var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, maxFrameLen)
	return &b
}}

var pendingPool = sync.Pool{New: func() any { return new(wpending) }}

// getPayloadBuf copies b into a pooled payload buffer and returns both
// the working slice and the pooled pointer to release later.
func getPayloadBuf(b []byte) ([]byte, *[]byte) {
	pb := payloadPool.Get().(*[]byte)
	buf := append((*pb)[:0], b...)
	*pb = buf
	return buf, pb
}

func putPayloadBuf(pb *[]byte) {
	if pb != nil {
		payloadPool.Put(pb)
	}
}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(fb *[]byte) { framePool.Put(fb) }

func getPending() *wpending { return pendingPool.Get().(*wpending) }

func putPending(pp *wpending) {
	*pp = wpending{}
	pendingPool.Put(pp)
}
