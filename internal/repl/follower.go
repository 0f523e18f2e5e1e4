package repl

import (
	"errors"
	"fmt"
	"sync"

	"pushpull/internal/shard"
)

// StreamChunk is one poll's answer: durable bytes at the requested
// cursor, segment-advance and backlog flags, the sender's serving
// epoch, and its lifetime appended-record count for the stream (the
// lag reference).
type StreamChunk struct {
	Data    []byte
	Next    bool // requested segment finished; advance to (Seg+1, 0)
	More    bool // durable bytes remain past this chunk
	Epoch   uint64
	Appends uint64
}

// Source is the poll side of a primary: anything that can answer
// cursor reads over the replication streams. shard.Engine satisfies it
// via EngineSource; the network server adapts MsgReplPoll responses.
type Source interface {
	// Streams returns the stream count (shards + coordinator).
	Streams() int
	// PollStream reads up to max durable bytes of one stream at (seg, off).
	PollStream(stream, seg, off, max int) (StreamChunk, error)
}

// engineSource adapts a local engine (in-process followers, tests).
type engineSource struct{ e *shard.Engine }

// EngineSource exposes a durable engine as a poll Source.
func EngineSource(e *shard.Engine) Source { return engineSource{e} }

func (s engineSource) Streams() int { return s.e.Streams() }

func (s engineSource) PollStream(stream, seg, off, max int) (StreamChunk, error) {
	data, next, more, err := s.e.ReadDurable(stream, seg, off, max)
	if err != nil {
		return StreamChunk{}, err
	}
	return StreamChunk{
		Data: data, Next: next, More: more,
		Epoch: s.e.Epoch(), Appends: s.e.StreamAppends(stream),
	}, nil
}

// Puller drives a replica by polling a Source: the follower half of
// the catch-up loop. It owns the per-stream cursors and the lag
// gauges. Safe for concurrent use, though one poll loop per puller is
// the intended shape.
type Puller struct {
	rep *Replica
	max int

	mu  sync.Mutex
	cur []Cursor
	lag []uint64
}

// NewPuller builds a puller resuming from the replica's watermarks
// (byte zero on a fresh replica). max bounds one poll's byte budget
// (default 64 KiB).
func NewPuller(rep *Replica, max int) *Puller {
	if max <= 0 {
		max = 64 << 10
	}
	p := &Puller{rep: rep, max: max}
	for s := 0; s < rep.Config().Streams(); s++ {
		p.cur = append(p.cur, rep.Watermark(s))
		p.lag = append(p.lag, 0)
	}
	return p
}

// Replica returns the puller's target.
func (p *Puller) Replica() *Replica { return p.rep }

// Lag returns the last observed per-stream record lag (primary appends
// minus replica applied), indexed by stream.
func (p *Puller) Lag() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.lag...)
}

// Sync drains every stream's available durable bytes from src into the
// replica, advancing cursors and refreshing the lag gauges. It returns
// the bytes applied. A fenced replica surfaces ErrFenced; unrepairable
// stream damage surfaces the replica's poison.
func (p *Puller) Sync(src Source) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := src.Streams(); n != len(p.cur) {
		return 0, fmt.Errorf("repl: source has %d streams, replica %d", n, len(p.cur))
	}
	total := 0
	for s := range p.cur {
		for {
			ch, err := src.PollStream(s, p.cur[s].Seg, p.cur[s].Off, p.max)
			if err != nil {
				return total, err
			}
			if len(ch.Data) > 0 {
				err := p.rep.Apply(Batch{
					Stream: s, Seg: p.cur[s].Seg, Off: p.cur[s].Off,
					Data: ch.Data, Epoch: ch.Epoch,
				})
				switch {
				case err == nil:
					p.cur[s].Off += len(ch.Data)
					total += len(ch.Data)
				case errors.Is(err, ErrGap):
					// Cursor drifted (a restarted puller over a warm
					// replica): resync to the replica's watermark.
					p.cur[s] = p.rep.Watermark(s)
					continue
				default:
					return total, err
				}
			}
			if applied := p.rep.AppliedRecords(s); ch.Appends > applied {
				p.lag[s] = ch.Appends - applied
			} else {
				p.lag[s] = 0
			}
			if ch.Next {
				p.cur[s] = Cursor{Seg: p.cur[s].Seg + 1, Off: 0}
				continue
			}
			if !ch.More || len(ch.Data) == 0 {
				break
			}
		}
	}
	return total, nil
}
