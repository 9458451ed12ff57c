package wire

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"marnet/internal/core"
)

// FuzzConnStateMachine drives two connCores against each other through
// coreNet's pipe on synthetic time. The input is a program: each byte sends
// a frame from one end on its critical or its best-effort stream, lets time
// run, or is skipped, and every datagram written takes the next byte as its
// fate: dropped, duplicated, held back (so later ones overtake it) or
// delivered after the pipe's delay. After each step: every delivered payload
// was sent, no critical frame is delivered twice, and no acknowledgement
// covers a sequence the acknowledging end never received. Then the pipe
// heals and the cores run on their own deadlines for a virtual minute, after
// which every critical frame still under its retransmit limit (fewer than
// 1 + 4×RetxLimit transmissions) has been delivered and no send window
// holds one. Every send window keeps its invariants (checkWindow) after
// each step.
//
// A program whose first byte has its top bit set runs the two-path mode:
// the first end dials the second over two paths of the pipe (DialPaths),
// and path 0 is blackholed both ways from 2 ms × the second byte for
// 4 ms × the third, into the healed minute if the program ends sooner. Each path must then move only along up ⇄ degraded →
// down → probing → up (an answer that outruns the probing round revives a
// path still down), and the checks above hold all the same.
func FuzzConnStateMachine(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x0e, 0x04, 0x05, 0x3e})
	f.Add([]byte{0x00, 0x00, 0x00, 0x08, 0x10, 0x18, 0x01, 0x01, 0xfe, 0x02, 0x0a, 0x12, 0x7e})
	f.Add([]byte{0x00, 0x04, 0x01, 0x05, 0x00, 0x04, 0x01, 0x05, 0x1a, 0x09, 0x11, 0x19, 0x21, 0x29, 0xfe})
	f.Add([]byte{0x80, 0x10, 0x40, 0x00, 0x01, 0xfe, 0x04, 0x05, 0xfe, 0xfe, 0x00, 0xfe, 0xfe, 0xfe})
	f.Add([]byte{0x80, 0x02, 0x40, 0x00, 0x01, 0x04, 0x05, 0x02, 0xfe, 0x00, 0x01, 0xfe, 0xfe})
	f.Add([]byte{0x84, 0x00, 0xff, 0x00, 0x00, 0x08, 0x01, 0xfe, 0x02, 0x0a, 0x7e, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 || len(prog) > 512 {
			return
		}
		streams := []StreamSpec{
			{ID: 1, Class: core.ClassCritical, Priority: core.PrioHighest, Rate: 1e7},
			{ID: 2, Class: core.ClassFullBestEffort, Priority: core.PrioLowest, Rate: 1e7},
		}
		cfg := Config{Streams: streams, StartBudget: 1e7, Keepalive: 100 * time.Millisecond}
		n := newCoreNet(5 * time.Millisecond)
		a, b := n.pair(cfg, cfg)
		ends := []*coreEnd{a, b}
		var from, until time.Time // path 0's blackhole, two-path mode only
		if prog[0]&0x80 != 0 && len(prog) >= 3 {
			a.dialPaths(2, PathOptions{Session: 1})
			from = n.now.Add(time.Duration(prog[1]) * 2 * time.Millisecond)
			until = from.Add(time.Duration(prog[2]) * 4 * time.Millisecond)
		}
		dark := func(h Header) bool {
			return h.Session != 0 && h.Path == 0 && !n.now.Before(from) && n.now.Before(until)
		}
		type book struct {
			sent      map[uint64]uint16         // payload id → stream
			critical  map[int64]uint64          // critical seq → payload id
			tx        map[int64]int             // critical seq → transmissions
			delivered map[uint64]int            // ids delivered to this end
			arrived   map[uint16]map[int64]bool // data sequences that reached this end
		}
		books := map[*coreEnd]*book{}
		for _, e := range ends {
			books[e] = &book{sent: map[uint64]uint16{}, critical: map[int64]uint64{}, tx: map[int64]int{},
				delivered: map[uint64]int{}, arrived: map[uint16]map[int64]bool{1: {}, 2: {}}}
		}
		for _, e := range ends {
			e := e
			e.onMessage = func(m Message) {
				got := binary.LittleEndian.Uint64(m.Payload)
				stream, ok := books[e.peer].sent[got]
				if !ok || stream != m.Stream {
					t.Fatalf("delivered payload %#x on stream %d was never sent on it", got, m.Stream)
				}
				if books[e].delivered[got]++; stream == 1 && books[e].delivered[got] > 1 {
					t.Fatalf("critical payload %#x delivered %d times", got, books[e].delivered[got])
				}
			}
		}
		n.arrive = func(to *coreEnd, frame []byte) {
			if h, _, err := DecodeFrame(frame); err == nil && h.Type == TypeData {
				books[to].arrived[h.Stream][h.Seq] = true
			}
		}
		fates := 0
		n.fate = func(from *coreEnd, frame []byte) (int, time.Duration) {
			h, _, err := DecodeFrame(frame)
			if err != nil {
				t.Fatalf("an end wrote an undecodable datagram: %v", err)
			}
			for i := 0; i < h.Acks.Len(); i++ {
				r := h.Acks.Range(i)
				for s := r.First; s < r.First+int64(r.Run); s++ {
					if !books[from].arrived[r.Stream][s] {
						t.Fatalf("an ack covers stream %d seq %d, which never reached the acknowledging end", r.Stream, s)
					}
				}
			}
			if h.Type == TypeData && h.Stream == 1 {
				books[from].tx[h.Seq]++
			}
			if dark(h) {
				return 0, 0
			}
			fate := prog[fates%len(prog)]
			fates++
			switch fate % 8 {
			case 0:
				return 0, 0
			case 1:
				return 2, 0
			case 2, 3:
				return 1, time.Duration(fate>>3) * time.Millisecond
			}
			return 1, 0
		}
		next := uint64(0)
		for _, op := range prog {
			switch op % 4 {
			case 0, 1:
				e := ends[op%4]
				stream := uint16(1 + (op>>2)&1)
				next++
				id := uint64(op%4)<<56 | next
				seq := e.core.stream(stream).nextSeq
				if ok, err := e.send(stream, binary.LittleEndian.AppendUint64(nil, id)); err != nil {
					t.Fatal(err)
				} else if ok {
					books[e].sent[id] = stream
					if stream == 1 {
						books[e].critical[seq] = id
					}
				}
			case 2:
				n.run(time.Duration(op>>2) * 250 * time.Microsecond)
			}
			checkWindows(t, ends)
		}
		n.fate = func(_ *coreEnd, frame []byte) (int, time.Duration) {
			if h, _, _ := DecodeFrame(frame); dark(h) {
				return 0, 0
			}
			return 1, 0
		}
		n.run(time.Minute)
		checkWindows(t, ends)
		checkPathMoves(t, a.notes)
		for _, e := range ends {
			if held := e.core.stream(1).window.len(); held != 0 {
				t.Fatalf("%d critical frames still in the send window after a healed minute", held)
			}
		}
		limit := 1 + 4*a.core.retxLimit
		for _, e := range ends {
			for seq, id := range books[e].critical {
				if books[e.peer].delivered[id] == 0 && books[e].tx[seq] < limit {
					t.Fatalf("critical seq %d (payload %#x) sent %d times, under the limit of %d, and never delivered", seq, id, books[e].tx[seq], limit)
				}
			}
		}
	})
}

// checkWindows fails t on a send window of ends whose invariants broke.
func checkWindows(t *testing.T, ends []*coreEnd) {
	t.Helper()
	for _, e := range ends {
		for _, st := range e.core.streams {
			if err := checkWindow(&st.window); err != nil {
				t.Fatalf("stream %d's send window: %v", st.spec.ID, err)
			}
		}
	}
}

// checkPathMoves fails t on a path transition the state machine does not
// make: up ⇄ degraded, either → down, down → probing, probing (or, on an
// answer that outran the round, down) → up.
func checkPathMoves(t *testing.T, notes []pathNote) {
	t.Helper()
	next := map[PathState][]PathState{
		PathUp:       {PathDegraded, PathDown},
		PathDegraded: {PathUp, PathDown},
		PathDown:     {PathProbing, PathUp},
		PathProbing:  {PathUp},
	}
	state := map[string]PathState{}
	for _, n := range notes {
		if from := state[n.name]; !slices.Contains(next[from], n.state) {
			t.Fatalf("path %s moved %s → %s", n.name, from, n.state)
		}
		state[n.name] = n.state
	}
}
