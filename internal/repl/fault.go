package repl

import (
	"errors"
	"fmt"
	"sync"

	"pushpull/internal/chaos"
	"pushpull/internal/shard"
)

// Poll faults a FaultSource injects.
var (
	// ErrPollDropped reports a poll lost on the wire: the follower
	// polls again from the same cursor.
	ErrPollDropped = errors.New("repl: poll dropped")
	// ErrPartitioned reports a follower cut off from the primary: its
	// poll never arrived, or (asymmetric window) its bytes arrived but
	// its confirmation did not.
	ErrPartitioned = errors.New("repl: follower partitioned from the primary")
)

// maxRepolls bounds how often Drain polls again after dropped polls
// before it reports the follower behind.
const maxRepolls = 64

// FaultSource sits between a follower's Puller and the primary's
// Source and injects a lossy link's faults: it drops polls, answers
// short, and cuts the follower off during partition windows on its poll
// index. Every draw is chaos.Hash01 over (seed, follower, poll index),
// so a seeded run replays exactly. Inside a full window a poll never
// reaches the primary; inside an asymmetric one the poll is answered —
// the replica holds and folds the bytes — but the follower's
// confirmation is lost, so an ack gate must treat them as unreplicated.
type FaultSource struct {
	src         Source
	seed        int64
	drop, short float64

	mu          sync.Mutex
	wins        []chaos.PartitionWindow
	polls       uint64
	dropped     uint64
	shortened   uint64
	partitioned uint64
}

// NewFaultSource wraps src for one follower. drop and short are
// per-poll probabilities in [0, 1); zero rates and no windows make a
// perfect link.
func NewFaultSource(src Source, seed int64, follower int, drop, short float64) *FaultSource {
	return &FaultSource{src: src, seed: seed<<8 ^ int64(follower), drop: drop, short: short}
}

// Streams implements Source.
func (f *FaultSource) Streams() int { return f.src.Streams() }

// PollStream implements Source through the fault model.
func (f *FaultSource) PollStream(stream, seg, off, max int) (StreamChunk, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	idx := f.polls
	f.polls++
	for _, w := range f.wins {
		if idx >= w.From && idx < w.To {
			f.partitioned++
			if !w.Asym {
				return StreamChunk{}, fmt.Errorf("%w: poll %d", ErrPartitioned, idx)
			}
			break
		}
	}
	if chaos.Hash01(f.seed, "repl/drop", idx) < f.drop {
		f.dropped++
		return StreamChunk{}, fmt.Errorf("%w: poll %d", ErrPollDropped, idx)
	}
	ch, err := f.src.PollStream(stream, seg, off, max)
	if err == nil && len(ch.Data) > 1 && chaos.Hash01(f.seed, "repl/short", idx) < f.short {
		// Answer a strict prefix: the segment is not finished from the
		// follower's side, and the rest is still to come.
		f.shortened++
		n := 1 + int(chaos.Hash01(f.seed, "repl/short-len", idx)*float64(len(ch.Data)-1))
		ch.Data, ch.Next, ch.More = ch.Data[:n], false, true
	}
	return ch, err
}

// Partition schedules a cut; the follower is cut at poll index i when
// any window covers i.
func (f *FaultSource) Partition(w chaos.PartitionWindow) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.wins = append(f.wins, w)
}

// Heal clears every partition window now.
func (f *FaultSource) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.wins = nil
}

// Counts reports the faults injected so far: dropped polls, short
// answers, and polls inside a partition window.
func (f *FaultSource) Counts() (dropped, short, partitioned uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped, f.shortened, f.partitioned
}

// Drain syncs p through the source up to the primary's durable end,
// polling again after each dropped poll. A nil return means the
// follower holds, and has confirmed, every byte the primary had made
// durable.
func (f *FaultSource) Drain(p *Puller) error {
	_, _, cut := f.Counts()
	var err error
	for try := 0; try <= maxRepolls; try++ {
		if _, err = p.Sync(f); !errors.Is(err, ErrPollDropped) {
			break
		}
	}
	if err != nil {
		return err
	}
	// A full window refuses its poll, so a cut poll in a sync that
	// succeeded was answered inside an asymmetric window.
	if _, _, now := f.Counts(); now != cut {
		return fmt.Errorf("%w: delivered, confirmation lost", ErrPartitioned)
	}
	return nil
}

// Gate returns the in-process semi-synchronous ack check; wire it as
// shard.Options.AckCheck. Each call drains every follower (srcs[i]
// feeds pullers[i]) and withholds the ack while any follower is
// partitioned, unconfirmed or behind. A follower whose replica refuses
// the primary's epoch fences the primary: fence runs with the
// replica's epoch and the ack is refused with shard.ErrFenced.
func Gate(fence func(epoch uint64), pullers []*Puller, srcs []*FaultSource) func() error {
	return func() error {
		var behind error
		for i, p := range pullers {
			err := srcs[i].Drain(p)
			switch {
			case errors.Is(err, ErrFenced):
				fence(p.Replica().Epoch())
				return fmt.Errorf("follower %d: %w", i, shard.ErrFenced)
			case err != nil && behind == nil:
				behind = fmt.Errorf("follower %d: %w", i, err)
			}
		}
		return behind
	}
}
