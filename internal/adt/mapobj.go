package adt

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"pushpull/internal/spec"
)

// Map methods.
const (
	// MMapPut is put(k, v) -> previous value, or spec.Absent if k was
	// unmapped. Returning the previous binding makes put invertible,
	// mirroring the two abort cases of Figure 2 (key defined vs not).
	MMapPut = "put"
	// MMapGet is get(k) -> value, or spec.Absent if unmapped.
	MMapGet = "get"
	// MMapRemove is remove(k) -> previous value, or spec.Absent.
	MMapRemove = "remove"
	// MMapSize is size() -> number of bindings.
	MMapSize = "size"
)

// Map is an integer-keyed map: the boosted hashtable of Figure 2
// (backed there by a ConcurrentSkipListMap, here by internal/skiplist
// when run as a real substrate).
type Map struct{}

var (
	_ spec.Object      = Map{}
	_ spec.Inverter    = Map{}
	_ spec.MoverOracle = Map{}
)

// Type implements spec.Object.
func (Map) Type() string { return "map" }

type mapState struct {
	kv map[int64]int64
}

func (s mapState) Eq(t spec.State) bool {
	u, ok := t.(mapState)
	if !ok || len(s.kv) != len(u.kv) {
		return false
	}
	for k, v := range s.kv {
		w, ok := u.kv[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

func (s mapState) String() string {
	keys := make([]int64, 0, len(s.kv))
	for k := range s.kv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d↦%d", k, s.kv[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Init implements spec.Object: the empty map.
func (Map) Init() spec.State { return mapState{kv: map[int64]int64{}} }

func (s mapState) clone() map[int64]int64 {
	next := make(map[int64]int64, len(s.kv)+1)
	for k, v := range s.kv {
		next[k] = v
	}
	return next
}

// Apply implements spec.Object.
func (Map) Apply(s spec.State, method string, args []int64) (spec.State, int64, bool) {
	st, ok := s.(mapState)
	if !ok {
		return nil, 0, false
	}
	lookup := func(k int64) int64 {
		if v, ok := st.kv[k]; ok {
			return v
		}
		return spec.Absent
	}
	switch method {
	case MMapPut:
		if len(args) != 2 || args[1] == spec.Absent {
			return nil, 0, false
		}
		old := lookup(args[0])
		next := st.clone()
		next[args[0]] = args[1]
		return mapState{kv: next}, old, true
	case MMapGet:
		if len(args) != 1 {
			return nil, 0, false
		}
		return st, lookup(args[0]), true
	case MMapRemove:
		if len(args) != 1 {
			return nil, 0, false
		}
		old := lookup(args[0])
		if old == spec.Absent {
			return st, spec.Absent, true
		}
		next := st.clone()
		delete(next, args[0])
		return mapState{kv: next}, old, true
	case MMapSize:
		if len(args) != 0 {
			return nil, 0, false
		}
		return st, int64(len(st.kv)), true
	default:
		return nil, 0, false
	}
}

// MapImage projects a Map spec state onto its bindings — the image
// restart seeding restores.
func MapImage(s spec.State) (map[int64]int64, bool) {
	st, ok := s.(mapState)
	return maps.Clone(st.kv), ok
}

// Invert implements spec.Inverter: exactly the two abort cases of
// Figure 2 — put over an existing binding is undone by restoring it,
// put of a fresh key by removing it.
func (Map) Invert(op spec.Op) (string, []int64, bool) {
	switch op.Method {
	case MMapPut:
		if op.Ret == spec.Absent {
			return MMapRemove, []int64{op.Args[0]}, true
		}
		return MMapPut, []int64{op.Args[0], op.Ret}, true
	case MMapRemove:
		if op.Ret == spec.Absent {
			return MMapGet, []int64{op.Args[0]}, true
		}
		return MMapPut, []int64{op.Args[0], op.Ret}, true
	case MMapGet, MMapSize:
		return op.Method, append([]int64(nil), op.Args...), true
	default:
		return "", nil, false
	}
}

func mapEffective(op spec.Op) bool {
	switch op.Method {
	case MMapPut:
		return op.Ret != op.Args[1] // overwriting with the same value is a no-op
	case MMapRemove:
		return op.Ret != spec.Absent
	default:
		return false
	}
}

func mapReadOnly(op spec.Op) bool {
	return op.Method == MMapGet || op.Method == MMapSize || !mapEffective(op)
}

// LeftMover implements spec.MoverOracle: the Section 2 example made
// formal — put(key1,·)/put(key2,·) and all other pairs on distinct keys
// commute (size excepted); reads/no-ops commute; same-key pairs with an
// effective mutation are left to the dynamic checker (some orders are
// vacuously movers).
func (Map) LeftMover(op1, op2 spec.Op) (holds, known bool) {
	if op1.Method == MMapSize || op2.Method == MMapSize {
		if mapReadOnly(op1) && mapReadOnly(op2) {
			return true, true
		}
		return false, false
	}
	if op1.Args[0] != op2.Args[0] {
		return true, true
	}
	if mapReadOnly(op1) && mapReadOnly(op2) {
		return true, true
	}
	return false, false
}
