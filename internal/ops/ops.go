// Package ops is the typed-operation registry: the single table that
// binds every wire operation kind (Code — kvapi.OpKind and shard.OpKind
// are aliases of it) to its sequential specification method on
// adt.TypedKV, its commutativity class (the abstract-lock sharing
// ticket realizing the ADT's mover oracle), its inverse story for abort
// rewind, and its logical journal effect for cross-shard write-sets.
//
// The Push/Pull payoff this package carries to the wire: two
// unit-returning increments of one hot counter COMMUTE — the boosted
// substrate lets both hold the key's abstract lock under the shared
// "add" class and both commit — while the operations whose returns or
// partiality observe the order (cas, cget-vs-add, pop on empty,
// withdraw at the balance boundary) stay conflicts. "Limits of
// Commutativity on Abstract Data Types" supplies the boundary
// judgments; adt.TypedKV.LeftMover encodes them and TestOpsClassesMatchOracle
// pins this table against that oracle.
package ops

import (
	"fmt"

	"pushpull/internal/adt"
	"pushpull/internal/spec"
)

// Code identifies one operation kind. It is the one declaration of the
// enum: the value is the wire byte, and the wire (kvapi.OpKind) and the
// engine (shard.OpKind) name this same type, so an operation crosses
// every layer without a conversion.
type Code uint8

const (
	// Get is the blind register read of the untyped KV surface.
	Get Code = 0
	// Put is the blind absolute write of the untyped KV surface.
	Put Code = 1
	// Add is add(k, d) -> 0: commuting counter arithmetic (INCR is
	// Add with d=1).
	Add Code = 2
	// CGet is cget(k) -> value: typed counter read.
	CGet Code = 3
	// Wd is wd(k, n) -> 0: bounded withdraw, partial below balance.
	Wd Code = 4
	// CAS is cas(k, expect, new) -> old: the non-commuting control.
	CAS Code = 5
	// SAdd is sadd(k, m) -> 0: blind set insert.
	SAdd Code = 6
	// SRem is srem(k, m) -> 0: blind set remove.
	SRem Code = 7
	// SCont is scont(k, m) -> 0/1: set membership read.
	SCont Code = 8
	// QPush is qpush(k, v) -> 0: FIFO enqueue.
	QPush Code = 9
	// QPop is qpop(k) -> front: FIFO dequeue, partial on empty.
	QPop Code = 10

	// NumCodes bounds the code space for total decoders.
	NumCodes = 11
)

// Commute classes: owners declaring the same non-empty class may hold
// one cell's abstract lock together (locks.TryAcquireClass). The
// grouping is exactly the always-commutes fragment of the TypedKV
// mover oracle: add/wd share arithmetic (escrow-guarded), blind adds
// share, blind removes share, reads share with reads of the same
// method. Everything else — cas, queue ops, cross-class pairs — is
// exclusive.
const (
	// ClassExclusive admits one owner (locks.Exclusive).
	ClassExclusive = ""
	// ClassAdd covers add and escrow-guarded wd.
	ClassAdd = "add"
	// ClassCGet lets counter reads share with counter reads.
	ClassCGet = "cget"
	// ClassSAdd covers blind set inserts.
	ClassSAdd = "sadd"
	// ClassSRem covers blind set removes.
	ClassSRem = "srem"
	// ClassSCont lets membership reads share with membership reads.
	ClassSCont = "scont"
)

// Obj is the certification/replay object name typed operations are
// recorded against in the global log G and the WAL.
const Obj = "ops"

// KeyBit namespaces typed counter cells inside the MVCC fold: cell k
// folds at KeyBit|k so snapshot reads of typed counters never collide
// with the blind map's key space.
const KeyBit = uint64(1) << 63

// Desc describes one operation.
type Desc struct {
	Code Code
	// Name is the human name -op-mix and docs use.
	Name string
	// Method is the adt.TypedKV spec method ("" for the untyped
	// Get/Put, which certify against the map/register objects).
	Method string
	// Class is the commute class of the cell's abstract lock.
	Class string
	// Args counts payload operands beyond the key (0..2).
	Args int
	// ReadOnly operations journal nothing and never mutate.
	ReadOnly bool
	// Partial operations may be undefined in a state (wd below
	// balance, qpop on empty): they must conflict rather than commute
	// at the boundary, and they surface as retryable conflicts when
	// undefined.
	Partial bool
}

var table = [NumCodes]Desc{
	Get:   {Code: Get, Name: "get", Args: 0, ReadOnly: true},
	Put:   {Code: Put, Name: "put", Args: 1},
	Add:   {Code: Add, Name: "incr", Method: adt.MOpsAdd, Class: ClassAdd, Args: 1},
	CGet:  {Code: CGet, Name: "cget", Method: adt.MOpsGet, Class: ClassCGet, Args: 0, ReadOnly: true},
	Wd:    {Code: Wd, Name: "wd", Method: adt.MOpsWd, Class: ClassAdd, Args: 1, Partial: true},
	CAS:   {Code: CAS, Name: "cas", Method: adt.MOpsCAS, Class: ClassExclusive, Args: 2},
	SAdd:  {Code: SAdd, Name: "sadd", Method: adt.MOpsSAdd, Class: ClassSAdd, Args: 1},
	SRem:  {Code: SRem, Name: "srem", Method: adt.MOpsSRem, Class: ClassSRem, Args: 1},
	SCont: {Code: SCont, Name: "scont", Method: adt.MOpsSCont, Class: ClassSCont, Args: 1, ReadOnly: true},
	QPush: {Code: QPush, Name: "qpush", Method: adt.MOpsQPush, Class: ClassExclusive, Args: 1},
	QPop:  {Code: QPop, Name: "qpop", Method: adt.MOpsQPop, Class: ClassExclusive, Args: 0, Partial: true},
}

// ByCode returns the descriptor for a wire code.
func ByCode(c Code) (Desc, bool) {
	if int(c) >= len(table) {
		return Desc{}, false
	}
	return table[c], true
}

// ByName resolves a -op-mix style name ("incr", "cget", ...).
func ByName(name string) (Desc, bool) {
	for _, d := range table {
		if d.Name == name {
			return d, true
		}
	}
	return Desc{}, false
}

// Typed reports whether the code is a typed (non Get/Put) operation.
func (c Code) Typed() bool { return c >= Add && c < NumCodes }

// String is the operation's registry name ("incr", "cget", ...).
func (c Code) String() string {
	if d, ok := ByCode(c); ok {
		return d.Name
	}
	return fmt.Sprintf("op(%d)", uint8(c))
}

// Op is one KV operation, the same value on the wire and in the
// engine. Val is the first operand (put value, delta, member, CAS
// expect), Arg the second (CAS: the new value).
type Op struct {
	Kind Code
	Key  uint64
	Val  int64
	Arg  int64
}

// Table lists every descriptor, code-ascending.
func Table() []Desc {
	out := make([]Desc, len(table))
	copy(out, table[:])
	return out
}

// Object is the sequential specification typed ops certify against.
func Object() spec.Object { return adt.TypedKV{} }

// Oracle is the commutativity judgment (adt.TypedKV's mover table).
func Oracle() spec.MoverOracle { return adt.TypedKV{} }

// Invert exposes the spec-level inverse binding for abort rewind.
// Blind set mutators and queue ops return ok=false: they have no
// syntactic inverse (a blind add cannot know whether the member was
// new), which is why the boosted runtime rewinds them with support
// sets and undo closures instead.
func Invert(op spec.Op) (method string, args []int64, ok bool) {
	return adt.TypedKV{}.Invert(op)
}

// SpecOp builds the (method, args) pair recorded in G for one executed
// typed operation; key is the cell, a/b the payload operands in wire
// order. ok=false for untyped codes.
func SpecOp(c Code, key uint64, a, b int64) (method string, args []int64, ok bool) {
	d, found := ByCode(c)
	if !found || d.Method == "" {
		return "", nil, false
	}
	switch d.Args {
	case 0:
		return d.Method, []int64{int64(key)}, true
	case 1:
		return d.Method, []int64{int64(key), a}, true
	default:
		return d.Method, []int64{int64(key), a, b}, true
	}
}

// WireMethod tags one logical write in a cross-shard journal entry
// (shard.KV): how a branch's committed effect on one key rolls forward
// at recovery.
type WireMethod uint8

const (
	// WPut is an absolute write (blind put, or a cas resolved to the
	// value it installed).
	WPut WireMethod = 0
	// WAdd is a counter delta (add, or wd resolved to its negation —
	// an approved withdraw's journal effect is total by construction).
	WAdd WireMethod = 1
	// WSAdd is a blind set insert.
	WSAdd WireMethod = 2
	// WSRem is a blind set remove.
	WSRem WireMethod = 3
	// WQPush is a FIFO enqueue.
	WQPush WireMethod = 4
)

// Code maps a journaled write method back to the operation that
// re-applies it at roll-forward.
func (m WireMethod) Code() Code {
	switch m {
	case WAdd:
		return Add
	case WSAdd:
		return SAdd
	case WSRem:
		return SRem
	case WQPush:
		return QPush
	default:
		return Put
	}
}

// Effect resolves one EXECUTED operation (payload a/b, observed return
// ret) into its journal entry. write=false for reads and for a cas
// that did not install. ok=false for qpop: a dequeue's effect depends
// on the queue at replay time, so it cannot roll forward logically and
// is barred from cross-shard transactions.
func Effect(c Code, a, b, ret int64) (m WireMethod, val int64, write, ok bool) {
	switch c {
	case Put:
		return WPut, a, true, true
	case Add:
		return WAdd, a, true, true
	case Wd:
		return WAdd, -a, true, true
	case CAS:
		if ret == a {
			return WPut, b, true, true
		}
		return 0, 0, false, true
	case SAdd:
		return WSAdd, a, true, true
	case SRem:
		return WSRem, a, true, true
	case QPush:
		return WQPush, a, true, true
	case Get, CGet, SCont:
		return 0, 0, false, true
	default:
		return 0, 0, false, false
	}
}
