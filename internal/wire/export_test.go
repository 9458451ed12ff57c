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
