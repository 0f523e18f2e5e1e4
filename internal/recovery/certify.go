package recovery

import (
	"fmt"

	"pushpull/internal/spec"
)

// Certify folds the recovered prefix, in commit-stamp order, from the
// registry's initial state through spec.Registry.ApplyOp: every op must
// be defined where it lands and return what its record says. The log is
// already sequential, so this is Theorem 5.17's certificate for it, and
// a machine replay checks nothing more — one thread at a time, folded
// after every commit, PUSH (ii) never meets a foreign uncommitted op,
// PUSH (i)/(iii) and CMT (ii)/(iii) follow from in-order pushes APP
// allowed, and the commit-order check compares the log with itself.
// The prefix property (CMT (iii) commits dependencies first) means a
// failure is corruption or a durability bug; the error names the
// transaction, its stamp, the op and what the specification expected.
func Certify(s State, reg *spec.Registry) error {
	_, err := certify(s, reg)
	return err
}

// certify is Certify's fold, returning the certified state.
func certify(s State, reg *spec.Registry) (spec.Composite, error) {
	c := reg.InitState()
	for _, t := range s.Txns {
		for _, op := range t.Ops {
			next, ok := reg.ApplyOp(c, op)
			if !ok {
				want := "the specification leaves it undefined"
				if ret, ok := reg.EvalFrom(c, nil, op.Obj, op.Method, op.Args); ok {
					want = fmt.Sprintf("the specification returns %d", ret)
				}
				return spec.Composite{}, fmt.Errorf("recovery: txn %q (stamp %d) fails certification at %s: %s",
					t.Name, t.Stamp, op, want)
			}
			c = next
		}
	}
	return c, nil
}

// RecoverAndCertify is the end-to-end path: replay the durable images,
// reject anomalous replays, certify the result and carry the certified
// state on Report.Certified. The returned Report is valid even on
// error.
func RecoverAndCertify(segs [][]byte, reg *spec.Registry) (Report, error) {
	rep := Recover(segs)
	if !rep.Ok() {
		return rep, fmt.Errorf("recovery: replay anomalies: %v", rep.Anomalies)
	}
	var err error
	rep.Certified, err = certify(rep.State, reg)
	return rep, err
}
