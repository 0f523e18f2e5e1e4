// Package spec defines the semantic foundation of the Push/Pull model:
// operation records, operation logs, sequential specifications (the
// paper's Parameter 3.1 "allowed"), the coinductive log precongruence ≼
// (Definition 3.1), and Lipton left-movers over logs (Definition 4.1).
//
// The paper works with a single abstract state; we generalize to a
// registry of named object instances, each governed by a deterministic
// sequential specification. A composite log interleaves operations on
// many instances; operations on distinct instances always commute, a
// fact the mover machinery exploits.
package spec

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Absent is the sentinel return value ADT specifications use for
// "no value" results (e.g. map.get on a missing key). Workload values
// must therefore avoid this one value.
const Absent int64 = -1 << 62

// Op is an operation record ⟨m, σ1, σ2, id⟩: a method name, its
// arguments (the pre-stack projection relevant to the call), its return
// value (the post-stack projection), and a globally unique identifier.
// Tx records the owning transaction and Seq the operation's position in
// that transaction's local order; both are bookkeeping the machine and
// the serializability checker rely on, not part of the paper's tuple.
type Op struct {
	ID     uint64
	Tx     uint64
	Seq    int
	Obj    string // object instance name, e.g. "ht"
	Method string
	Args   []int64
	Ret    int64
}

// Key returns the operation identity used by the paper's lifted ∈ / ∖ /
// ⊆ notations, where "equality is given by ids".
func (o Op) Key() uint64 { return o.ID }

func (o Op) String() string {
	args := make([]string, len(o.Args))
	for i, a := range o.Args {
		if a == Absent {
			args[i] = "⊥"
		} else {
			args[i] = fmt.Sprintf("%d", a)
		}
	}
	ret := fmt.Sprintf("%d", o.Ret)
	if o.Ret == Absent {
		ret = "⊥"
	}
	return fmt.Sprintf("%s.%s(%s)=%s#%d", o.Obj, o.Method, strings.Join(args, ","), ret, o.ID)
}

// Log is an ordered list of operation records. The shared (global) log
// and thread-local logs of the Push/Pull machine both project to Logs.
type Log []Op

// Append returns l·op without mutating l.
func (l Log) Append(op Op) Log {
	out := make(Log, len(l)+1)
	copy(out, l)
	out[len(l)] = op
	return out
}

// Concat returns l·m without mutating either.
func (l Log) Concat(m Log) Log {
	out := make(Log, 0, len(l)+len(m))
	out = append(out, l...)
	out = append(out, m...)
	return out
}

// Contains reports op ∈ l under id-equality.
func (l Log) Contains(op Op) bool {
	for _, o := range l {
		if o.ID == op.ID {
			return true
		}
	}
	return false
}

// Without returns l ∖ m: the operations of l whose ids do not occur in
// m, preserving l's order (the paper's filter definition of G ∖ L).
func (l Log) Without(m Log) Log {
	drop := make(map[uint64]bool, len(m))
	for _, o := range m {
		drop[o.ID] = true
	}
	out := make(Log, 0, len(l))
	for _, o := range l {
		if !drop[o.ID] {
			out = append(out, o)
		}
	}
	return out
}

// Intersect returns G ∩ m preserving the order of l (the receiver),
// matching the paper's note that ∖ and ∩ preserve their first argument's
// order.
func (l Log) Intersect(m Log) Log {
	keep := make(map[uint64]bool, len(m))
	for _, o := range m {
		keep[o.ID] = true
	}
	out := make(Log, 0, len(l))
	for _, o := range l {
		if keep[o.ID] {
			out = append(out, o)
		}
	}
	return out
}

// SubsetOf reports l ⊆ m under id-equality.
func (l Log) SubsetOf(m Log) bool {
	in := make(map[uint64]bool, len(m))
	for _, o := range m {
		in[o.ID] = true
	}
	for _, o := range l {
		if !in[o.ID] {
			return false
		}
	}
	return true
}

func (l Log) String() string {
	parts := make([]string, len(l))
	for i, o := range l {
		parts[i] = o.String()
	}
	return "[" + strings.Join(parts, " · ") + "]"
}

var idCounter atomic.Uint64

// FreshID returns a globally unique operation identifier, realizing the
// paper's fresh(id) predicate (APP criterion (iii)).
func FreshID() uint64 { return idCounter.Add(1) }
