// Package adt provides sequential specifications (spec.Object
// instantiations) for the object types used throughout the paper's
// examples and evaluation: read/write register memory (the word-level
// view of software and hardware TMs), counters (the HTM-controlled
// size/x/y variables of Section 7), sets and maps (the boosted
// skiplist/hashtable of Figure 2), and FIFO queues (a deliberately
// non-commutative specification used for negative tests).
//
// Each specification supplies:
//   - the deterministic denotation (Apply),
//   - syntactic inverses where they exist (spec.Inverter), used by
//     UNPUSH-via-inverse implementations such as boosting undo logs, and
//   - a static mover oracle (spec.MoverOracle) encoding the algebraic
//     facts the paper expects users to prove once (e.g. Section 2's
//     "put(key1)/put(key2) commute provided key1 ≠ key2").
//
// Oracles are deliberately conservative: they answer known=true only
// for judgments that hold for ALL logs (Definition 4.1); subtle cases
// (e.g. vacuous movers whose left-hand logs are never allowed) are left
// unknown so the bounded or dynamic checker decides.
package adt

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"pushpull/internal/spec"
)

// Register methods.
const (
	// MRead is read(addr) -> value (0 if never written).
	MRead = "read"
	// MWrite is write(addr, value) -> previous value. Returning the
	// overwritten value makes writes syntactically invertible, which is
	// how word-STM undo logs realize UNPUSH.
	MWrite = "write"
)

// Register is a word-addressable memory: the sequential specification
// of read/write software TMs (TL2, TinySTM; Section 6.2) and of the
// simulated HTM (Section 7).
type Register struct{}

var (
	_ spec.Object      = Register{}
	_ spec.Inverter    = Register{}
	_ spec.MoverOracle = Register{}
)

// Type implements spec.Object.
func (Register) Type() string { return "register" }

type regState struct {
	mem map[int64]int64
}

func (s regState) Eq(t spec.State) bool {
	u, ok := t.(regState)
	if !ok {
		return false
	}
	// Zero-valued entries are unobservable: compare non-zero supports.
	for a, v := range s.mem {
		if v != 0 && u.mem[a] != v {
			return false
		}
	}
	for a, v := range u.mem {
		if v != 0 && s.mem[a] != v {
			return false
		}
	}
	return true
}

func (s regState) String() string {
	keys := make([]int64, 0, len(s.mem))
	for a, v := range s.mem {
		if v != 0 {
			keys = append(keys, a)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	parts := make([]string, len(keys))
	for i, a := range keys {
		parts[i] = fmt.Sprintf("%d↦%d", a, s.mem[a])
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Init implements spec.Object: all addresses hold zero.
func (Register) Init() spec.State { return regState{mem: map[int64]int64{}} }

// Apply implements spec.Object.
func (Register) Apply(s spec.State, method string, args []int64) (spec.State, int64, bool) {
	st, ok := s.(regState)
	if !ok {
		return nil, 0, false
	}
	switch method {
	case MRead:
		if len(args) != 1 {
			return nil, 0, false
		}
		return st, st.mem[args[0]], true
	case MWrite:
		if len(args) != 2 {
			return nil, 0, false
		}
		addr, val := args[0], args[1]
		old := st.mem[addr]
		next := make(map[int64]int64, len(st.mem)+1)
		for a, v := range st.mem {
			next[a] = v
		}
		next[addr] = val
		return regState{mem: next}, old, true
	default:
		return nil, 0, false
	}
}

// RegisterImage projects a Register spec state onto every address ever
// written (zero-valued writes included) — the image restart seeding
// restores.
func RegisterImage(s spec.State) (map[int64]int64, bool) {
	st, ok := s.(regState)
	return maps.Clone(st.mem), ok
}

// Invert implements spec.Inverter: a write is undone by writing back the
// previous value it returned; a read needs no inverse.
func (Register) Invert(op spec.Op) (string, []int64, bool) {
	switch op.Method {
	case MWrite:
		return MWrite, []int64{op.Args[0], op.Ret}, true
	case MRead:
		return MRead, append([]int64(nil), op.Args...), true
	default:
		return "", nil, false
	}
}

// LeftMover implements spec.MoverOracle.
//
// Algebraic facts: operations on distinct addresses commute; two reads
// of the same address commute. A read against a write of the same
// address, or two writes to the same address, are movers only in
// value-dependent corner cases (e.g. the write is value-preserving),
// which we conservatively report as statically refuted when the recorded
// values demonstrate interference and as unknown otherwise.
func (Register) LeftMover(op1, op2 spec.Op) (holds, known bool) {
	a1, a2 := op1.Args[0], op2.Args[0]
	if a1 != a2 {
		return true, true
	}
	switch {
	case op1.Method == MRead && op2.Method == MRead:
		return true, true
	case op1.Method == MWrite && op2.Method == MWrite:
		// w1 then w2 at the same address: swapping changes the final
		// value unless both write the same value, and changes returns
		// unless the recorded old-values line up.
		if op1.Args[1] == op2.Args[1] && op1.Ret == op2.Ret {
			return true, true
		}
		return false, false // possibly vacuous; let dynamic decide
	default:
		// read vs write, same address: a value-preserving write
		// (old == new per its own record) commutes with reads.
		w := op1
		if op2.Method == MWrite {
			w = op2
		}
		if w.Args[1] == w.Ret {
			return true, true
		}
		return false, false
	}
}
