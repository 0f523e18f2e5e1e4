package recovery_test

import (
	"fmt"
	"testing"

	"pushpull/internal/bench"
	"pushpull/internal/recovery"
)

// TestReplayIdempotenceAcrossSubstrates is the idempotence table test
// over real crash images: every substrate (and the hybrid and the
// cooperative model) runs a workload with the WAL attached and a
// scheduled crash, and the surviving image must satisfy
//
//	Recover(img) == Recover(img)                    (replay twice)
//	Recover(ReLog(Recover(img).State)) == Recover(img)   (fixpoint)
//
// with the recovered prefix certifying cleanly both times.
func TestReplayIdempotenceAcrossSubstrates(t *testing.T) {
	p := bench.ChaosParams{Threads: 4, OpsEach: 12}
	for _, target := range bench.CrashTargets() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", target, seed), func(t *testing.T) {
				o := bench.RunCrashOne(target, seed, p)
				if err := o.Err; err != nil {
					t.Fatalf("crash run failed: %v (replay: %s)", err, o.Plan)
				}
				once := recovery.Recover(o.Segments)
				twice := recovery.Recover(o.Segments)
				if !once.State.Equal(twice.State) {
					t.Fatal("replay-twice diverged from replay-once")
				}
				fix := recovery.Recover(recovery.ReLog(once.State))
				if !fix.Ok() || fix.Truncated != nil {
					t.Fatalf("re-logged state does not replay cleanly: %v", fix)
				}
				if !fix.State.Equal(once.State) {
					t.Fatal("recover(relog(recover(img))) is not a fixpoint")
				}
				if len(once.State.Txns) > 0 {
					if err := recovery.Certify(fix.State, bench.CertRegistryFor(target)); err != nil {
						t.Fatalf("fixpoint state fails certification: %v", err)
					}
				}
			})
		}
	}
}

// TestCertifyMatchesMachineOnCrashImages: on the durable image of every
// crash-sweep target at seeds 1–10, the fold and the machine replay
// reach the same verdict.
func TestCertifyMatchesMachineOnCrashImages(t *testing.T) {
	p := bench.ChaosParams{Threads: 4, OpsEach: 12}
	for _, target := range bench.CrashTargets() {
		for seed := int64(1); seed <= 10; seed++ {
			o := bench.RunCrashOne(target, seed, p)
			st := recovery.Recover(o.Segments).State
			reg := bench.CertRegistryFor(target)
			fold, machine := recovery.Certify(st, reg), recovery.CertifyByMachine(st, reg)
			if (fold == nil) != (machine == nil) {
				t.Fatalf("%s/seed%d: verdicts differ\nfold:    %v\nmachine: %v", target, seed, fold, machine)
			}
		}
	}
}
