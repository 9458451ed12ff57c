package wire

import "sync"

// Buffer pools for the send fast path, storing pointers so Get and Put do
// not allocate (DESIGN.md §3g):
//   - payload buffers: the copy Send takes of the caller's bytes. A
//     reliable frame's lives in its record until the sequence leaves the
//     stream's send window, a best-effort one's until poll has encoded it;
//     a buffer is released under the driver's lock, since poll copies it
//     into the frame a write reads;
//   - frame buffers: a driver's, for the wire image it polls and writes.
//
// The records themselves are not pooled: each lives by value in its
// stream's send window (sendwindow.go).

// maxFrameLen is the largest possible wire frame: a traced header with a
// grouped path extension, a full acknowledgement block and a full payload.
const maxFrameLen = HeaderLenTraced + maxPathExt + maxAckBlockLen + MaxPayload

var payloadPool = sync.Pool{New: func() any {
	b := make([]byte, 0, MaxPayload)
	return &b
}}

var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, maxFrameLen)
	return &b
}}

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
