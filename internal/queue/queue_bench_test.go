package queue

import (
	"testing"
	"time"

	"marnet/internal/simnet"
)

func benchDiscipline(b *testing.B, q simnet.Queue) {
	b.Helper()
	b.ReportAllocs()
	now := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Microsecond
		p := &simnet.Packet{Seq: int64(i), Size: 1000 + i%500, Flow: uint64(i % 16)}
		p.Prio = i % 4
		q.Enqueue(p, now)
		if i%2 == 1 {
			q.Dequeue(now)
		}
	}
	for q.Dequeue(now) != nil {
	}
}

func BenchmarkCoDel(b *testing.B)          { benchDiscipline(b, oneFlow(0)) }
func BenchmarkFQCoDel(b *testing.B)        { benchDiscipline(b, NewFQCoDel(0)) }
func BenchmarkStrictPriority(b *testing.B) { benchDiscipline(b, NewStrictPriority(4, 0)) }
