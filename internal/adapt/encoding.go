package adapt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The policy control message is the compact header a client prepends to
// offload requests so the server (and any relay) can see what degradation
// rung and recovery scheme the payload was shipped under — the server's
// service model charges mode-dependent compute from it, and tooling can
// reconstruct a decision trace from captured traffic.
//
// Layout (PolicyLen bytes, little-endian):
//
//	[0]   version (policyVersion)
//	[1]   mode
//	[2]   flags (bit 0: retransmit)
//	[3]   K data shards (0 under ARQ)
//	[4]   M repair shards (0 under ARQ)
//	[5:9] tick (uint32): the controller tick that produced the policy
const (
	policyVersion = 1
	// PolicyLen is the fixed encoded size of a policy control message.
	PolicyLen = 9

	flagRetransmit = 1 << 0
)

// ErrBadPolicy reports a malformed or internally inconsistent policy
// control message.
var ErrBadPolicy = errors.New("adapt: malformed policy message")

// EncodePolicy returns the canonical PolicyLen-byte encoding of p.
func EncodePolicy(p Policy, tick uint32) []byte {
	return encodePolicyInto(make([]byte, 0, PolicyLen), p, tick)
}

func encodePolicyInto(dst []byte, p Policy, tick uint32) []byte {
	var flags byte
	if p.Retransmit {
		flags |= flagRetransmit
	}
	dst = append(dst, policyVersion, byte(p.Mode), flags, byte(p.K), byte(p.M))
	return binary.LittleEndian.AppendUint32(dst, tick)
}

// DecodePolicy parses a policy control message from the front of b,
// validating every invariant the encoder maintains: known version, a mode
// on the ladder, no unknown flags, and FEC parameters that describe a
// real code (K≥1 with K+M≤255 under FEC, K=M=0 under ARQ). Extra bytes
// after the header are the caller's payload and are ignored.
func DecodePolicy(b []byte) (Policy, uint32, error) {
	if len(b) < PolicyLen {
		return Policy{}, 0, fmt.Errorf("%w: %d bytes, need %d", ErrBadPolicy, len(b), PolicyLen)
	}
	if b[0] != policyVersion {
		return Policy{}, 0, fmt.Errorf("%w: version %d", ErrBadPolicy, b[0])
	}
	mode := Mode(b[1])
	if mode > ModeSkip {
		return Policy{}, 0, fmt.Errorf("%w: mode %d", ErrBadPolicy, b[1])
	}
	flags := b[2]
	if flags&^byte(flagRetransmit) != 0 {
		return Policy{}, 0, fmt.Errorf("%w: flags %#x", ErrBadPolicy, flags)
	}
	p := Policy{
		Mode:       mode,
		Retransmit: flags&flagRetransmit != 0,
		K:          int(b[3]),
		M:          int(b[4]),
	}
	if p.Retransmit || p.Mode == ModeSkip {
		if p.K != 0 || p.M != 0 {
			return Policy{}, 0, fmt.Errorf("%w: FEC shards (%d,%d) without FEC", ErrBadPolicy, p.K, p.M)
		}
	} else {
		if p.K < 1 || p.K+p.M > 255 {
			return Policy{}, 0, fmt.Errorf("%w: shards k=%d m=%d", ErrBadPolicy, p.K, p.M)
		}
	}
	tick := binary.LittleEndian.Uint32(b[5:9])
	return p, tick, nil
}
