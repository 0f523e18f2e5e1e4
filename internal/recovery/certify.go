package recovery

import (
	"fmt"

	"pushpull/internal/spec"
	"pushpull/internal/trace"
)

// Certify replays the recovered committed prefix, in commit-stamp
// order, through a fresh shadow Push/Pull machine over the given
// registry and demands a full certificate: every operation's recorded
// return value must match the sequential specification, every rule
// criterion must hold, the final window must be commit-order
// serializable, and the machine invariants must pass.
//
// This works because the recovered state is a committed *prefix* of
// the original run's commit order: CMT criterion (iii) forces a
// transaction's dependencies to commit first, so stamp order respects
// dependency order and commit-order serializability is closed under
// taking prefixes. A prefix that fails certification therefore means
// the durable image does not correspond to any reachable machine
// history — corruption or a durability bug, which is exactly what the
// caller wants surfaced. The recorder folds after every transaction,
// so the replay is linear in the prefix length.
func Certify(s State, reg *spec.Registry) error {
	rec := trace.NewRecorder(reg)
	for _, t := range s.Txns {
		ops := make([]trace.OpRecord, len(t.Ops))
		for i, op := range t.Ops {
			ops[i] = trace.OpRecord{Obj: op.Obj, Method: op.Method, Args: op.Args, Ret: op.Ret}
		}
		if !rec.AtomicTxn(t.Name, ops) {
			return fmt.Errorf("recovery: replay of txn %q (stamp %d) failed certification: %w",
				t.Name, t.Stamp, rec.Err())
		}
	}
	if err := rec.FinalCheck(); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	return nil
}

// RecoverAndCertify is the end-to-end path: replay the durable images,
// reject anomalous replays, certify the result. The returned Report is
// valid even on error.
func RecoverAndCertify(segs [][]byte, reg *spec.Registry) (Report, error) {
	rep := Recover(segs)
	if !rep.Ok() {
		return rep, fmt.Errorf("recovery: replay anomalies: %v", rep.Anomalies)
	}
	if err := Certify(rep.State, reg); err != nil {
		return rep, err
	}
	return rep, nil
}
