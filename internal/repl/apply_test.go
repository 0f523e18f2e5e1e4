package repl_test

import (
	"errors"
	"testing"

	"pushpull/internal/repl"
	"pushpull/internal/shard"
)

// TestApplyBytes pins Replica.Apply at the byte level: what it does with
// a duplicate, an overlap, a gap, a diverged overlap, a misplaced new
// segment, an append to a finished segment and a stale epoch. The
// stream is a real one-shard WAL rotated into at least two segments.
func TestApplyBytes(t *testing.T) {
	eng, err := shard.New(shard.Options{
		Shards: 1, Substrate: "tl2", Keys: 8, Seed: 3,
		Durable: true, Epoch: 1, SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; len(eng.Image().Shards[0]) < 3; i++ {
		if _, _, err := eng.Do([]shard.Op{{Kind: shard.OpPut, Key: uint64(i % 8), Val: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	segs := eng.Image().Shards[0]
	s0, s1 := segs[0], segs[1]
	half := len(s0) / 2
	batch := func(seg, off int, data []byte) repl.Batch {
		return repl.Batch{Stream: 0, Seg: seg, Off: off, Data: data, Epoch: 2}
	}
	flipped := append([]byte(nil), s0[half:]...)
	flipped[0] ^= 1
	grown := append(append([]byte(nil), s0[half:]...), 0)

	cases := []struct {
		name   string
		held   []repl.Batch // applied first, each must be acked
		probe  repl.Batch
		want   error // nil or the sentinel the probe must return
		poison bool  // the replica refuses every later batch
		check  func(t *testing.T, before, after repl.Stats)
	}{
		{
			name:  "pure duplicate is trimmed and counted",
			held:  []repl.Batch{batch(0, 0, s0[:half])},
			probe: batch(0, 0, s0[:half]),
			check: func(t *testing.T, before, after repl.Stats) {
				if after.Duplicates != before.Duplicates+1 {
					t.Fatalf("duplicates %d -> %d", before.Duplicates, after.Duplicates)
				}
				if after.Streams[0] != before.Streams[0] {
					t.Fatalf("duplicate moved the stream: %+v -> %+v", before.Streams[0], after.Streams[0])
				}
			},
		},
		{
			name:  "partial overlap extends the segment",
			held:  []repl.Batch{batch(0, 0, s0[:half])},
			probe: batch(0, half/2, s0[half/2:]),
			check: func(t *testing.T, _, after repl.Stats) {
				if w := after.Streams[0].Watermark; w != (repl.Cursor{Seg: 0, Off: len(s0)}) {
					t.Fatalf("watermark %+v, want seg 0 off %d", w, len(s0))
				}
				if after.Duplicates != 0 {
					t.Fatalf("an extending overlap counted as a duplicate: %+v", after)
				}
			},
		},
		{
			name:   "overlap mismatch poisons",
			held:   []repl.Batch{batch(0, 0, s0)},
			probe:  batch(0, half, flipped),
			want:   repl.ErrPoisoned,
			poison: true,
		},
		{
			name:  "gap is refused and leaves the state unchanged",
			held:  []repl.Batch{batch(0, 0, s0[:half])},
			probe: batch(0, half+1, s0[half+1:]),
			want:  repl.ErrGap,
			check: func(t *testing.T, before, after repl.Stats) {
				if after.Gaps != before.Gaps+1 {
					t.Fatalf("gaps %d -> %d", before.Gaps, after.Gaps)
				}
				after.Gaps = before.Gaps
				if after.Streams[0] != before.Streams[0] || after.Duplicates != before.Duplicates || after.Poisoned {
					t.Fatalf("gap changed the replica: %+v -> %+v", before, after)
				}
			},
		},
		{
			name:  "new segment not at offset 0 is a gap",
			held:  []repl.Batch{batch(0, 0, s0)},
			probe: batch(1, 1, s1[1:]),
			want:  repl.ErrGap,
			check: func(t *testing.T, before, after repl.Stats) {
				if after.Streams[0] != before.Streams[0] {
					t.Fatalf("misplaced segment changed the stream: %+v -> %+v", before.Streams[0], after.Streams[0])
				}
			},
		},
		{
			name:   "append to a finished segment poisons",
			held:   []repl.Batch{batch(0, 0, s0), batch(1, 0, s1)},
			probe:  batch(0, half, grown),
			want:   repl.ErrPoisoned,
			poison: true,
		},
		{
			name:  "lower epoch is fenced",
			held:  []repl.Batch{batch(0, 0, s0[:half])},
			probe: repl.Batch{Stream: 0, Seg: 0, Off: half, Data: s0[half:], Epoch: 1},
			want:  repl.ErrFenced,
			check: func(t *testing.T, before, after repl.Stats) {
				if after.Fenced != before.Fenced+1 || after.Streams[0] != before.Streams[0] {
					t.Fatalf("fenced batch: %+v -> %+v", before, after)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := repl.NewReplica(repl.Config{Substrate: "tl2", Shards: 1, Keys: 8})
			for i, b := range tc.held {
				if err := r.Apply(b); err != nil {
					t.Fatalf("held batch %d: %v", i, err)
				}
			}
			before := r.Stats()
			err := r.Apply(tc.probe)
			switch {
			case tc.want == nil && err != nil:
				t.Fatalf("probe refused: %v", err)
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("probe returned %v, want %v", err, tc.want)
			}
			if tc.check != nil {
				tc.check(t, before, r.Stats())
			}
			if (r.Poisoned() != nil) != tc.poison {
				t.Fatalf("poisoned = %v, want %v", r.Poisoned(), tc.poison)
			}
			if tc.poison {
				// Every later batch, even an honest one, is refused.
				next := r.Stats().Streams[0].Watermark
				if err := r.Apply(batch(next.Seg, next.Off, segs[next.Seg][next.Off:])); !errors.Is(err, repl.ErrPoisoned) {
					t.Fatalf("batch after poison returned %v", err)
				}
			}
		})
	}
}
