package chaos

// Network partition derivation for the replication layer. A partition
// is a window on a follower link's poll-index axis (not wall clock, so
// a seeded sweep replays exactly): every poll inside the window is
// cut. Full partitions refuse the poll entirely; asymmetric ones answer
// it but lose the follower's confirmation — the half-open failure that
// leaves the primary unsure whether the follower has the bytes.

// Partition sites (labels in the Hash01 scheme; they are not Injector
// sites — a follower's repl.FaultSource consumes windows, not
// per-visit draws).
const (
	// SiteReplPartition decides whether a link suffers a partition at
	// all, and shapes the window.
	SiteReplPartition Site = "repl/partition"
	// SiteReplPartitionAsym decides whether a firing partition is
	// asymmetric (delivered, confirmation lost) rather than full.
	SiteReplPartitionAsym Site = "repl/partition-asym"
)

// PartitionWindow is one derived cut: polls with index in [From, To)
// are cut; Asym selects the confirmation-loss flavor.
type PartitionWindow struct {
	From, To uint64
	Asym     bool
}

// PartitionsFor derives the deterministic partition schedule for one
// link: each of maxWindows candidate windows fires independently with
// probability rate, opens uniformly in [0, span), runs for 1..maxLen
// polls, and is asymmetric with probability 1/2. The same
// (seed, link) always yields the same schedule.
func PartitionsFor(seed int64, link int, rate float64, span, maxLen uint64, maxWindows int) []PartitionWindow {
	if maxLen == 0 || span == 0 || maxWindows <= 0 {
		return nil
	}
	var out []PartitionWindow
	base := uint64(link) * uint64(maxWindows) * 4
	for i := 0; i < maxWindows; i++ {
		v := base + uint64(i)*4
		if Hash01(seed, SiteReplPartition, v) >= rate {
			continue
		}
		from := uint64(Hash01(seed, SiteReplPartition, v+1) * float64(span))
		length := 1 + uint64(Hash01(seed, SiteReplPartition, v+2)*float64(maxLen))
		asym := Hash01(seed, SiteReplPartitionAsym, v+3) < 0.5
		out = append(out, PartitionWindow{From: from, To: from + length, Asym: asym})
	}
	return out
}
