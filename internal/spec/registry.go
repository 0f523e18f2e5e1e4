package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Registry binds object instance names to sequential specifications and
// provides the composite denotational semantics over interleaved logs.
// It is the concrete form of the paper's "sequential specification"
// parameter, generalized to many named instances.
type Registry struct {
	objs map[string]Object
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{objs: make(map[string]Object)}
}

// Register binds instance name to specification o. Registering the same
// name twice panics: instance identity is part of the semantics.
func (r *Registry) Register(name string, o Object) {
	if _, dup := r.objs[name]; dup {
		panic(fmt.Sprintf("spec: duplicate object instance %q", name))
	}
	r.objs[name] = o
}

// Object returns the specification bound to the instance name.
func (r *Registry) Object(name string) (Object, bool) {
	o, ok := r.objs[name]
	return o, ok
}

// Instances returns the registered instance names in sorted order.
func (r *Registry) Instances() []string {
	names := make([]string, 0, len(r.objs))
	for n := range r.objs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Composite is the product state of all registered instances, the ⟦ℓ⟧
// of a composite log.
type Composite struct {
	parts map[string]State
}

// StateOf returns the component state of one instance.
func (c Composite) StateOf(name string) (State, bool) {
	s, ok := c.parts[name]
	return s, ok
}

// Eq reports componentwise state equality.
func (c Composite) Eq(d Composite) bool {
	if len(c.parts) != len(d.parts) {
		return false
	}
	for n, s := range c.parts {
		t, ok := d.parts[n]
		if !ok || !s.Eq(t) {
			return false
		}
	}
	return true
}

func (c Composite) String() string {
	names := make([]string, 0, len(c.parts))
	for n := range c.parts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + c.parts[n].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// InitState returns the composite initial state I.
func (r *Registry) InitState() Composite {
	parts := make(map[string]State, len(r.objs))
	for n, o := range r.objs {
		parts[n] = o.Init()
	}
	return Composite{parts: parts}
}

// ApplyOp applies one recorded operation to a composite state. It fails
// (ok=false) if the instance is unknown, the method is undefined in the
// current state, or the method's result differs from the recorded
// return value — the record's σ2 constrains the denotation.
func (r *Registry) ApplyOp(c Composite, op Op) (Composite, bool) {
	obj, ok := r.objs[op.Obj]
	if !ok {
		return Composite{}, false
	}
	pre, ok := c.parts[op.Obj]
	if !ok {
		return Composite{}, false
	}
	post, ret, ok := obj.Apply(pre, op.Method, op.Args)
	if !ok || ret != op.Ret {
		return Composite{}, false
	}
	parts := make(map[string]State, len(c.parts))
	for n, s := range c.parts {
		parts[n] = s
	}
	parts[op.Obj] = post
	return Composite{parts: parts}, true
}

// DenoteFrom replays a log from an explicit start state. ok=false iff
// the log is not allowed from there. Start states other than
// InitState() arise from log compaction: a fully committed prefix of a
// long history is folded into its denotation (the machine's baseline)
// so later checks replay only the live suffix.
func (r *Registry) DenoteFrom(start Composite, l Log) (Composite, bool) {
	c := start
	for _, op := range l {
		var ok bool
		c, ok = r.ApplyOp(c, op)
		if !ok {
			return Composite{}, false
		}
	}
	return c, true
}

// Denote replays a log from the initial state. ok=false iff the log is
// not allowed (its denotation is empty).
func (r *Registry) Denote(l Log) (Composite, bool) {
	return r.DenoteFrom(r.InitState(), l)
}

// AllowedFrom is the allowed predicate relative to a start state.
func (r *Registry) AllowedFrom(start Composite, l Log) bool {
	_, ok := r.DenoteFrom(start, l)
	return ok
}

// Allowed is the paper's allowed ℓ predicate: non-empty denotation.
// It is prefix closed by construction (replay fails monotonically).
func (r *Registry) Allowed(l Log) bool {
	_, ok := r.Denote(l)
	return ok
}

// AllowsFrom reports ℓ allows op relative to a start state.
func (r *Registry) AllowsFrom(start Composite, l Log, op Op) bool {
	c, ok := r.DenoteFrom(start, l)
	if !ok {
		return false
	}
	_, ok = r.ApplyOp(c, op)
	return ok
}

// EvalFrom computes the return value method(args) would produce in the
// state denoted by l from start. ok=false if l is not allowed or the
// method is undefined there.
func (r *Registry) EvalFrom(start Composite, l Log, obj, method string, args []int64) (ret int64, ok bool) {
	c, ok := r.DenoteFrom(start, l)
	if !ok {
		return 0, false
	}
	o, ok := r.objs[obj]
	if !ok {
		return 0, false
	}
	s, ok := c.parts[obj]
	if !ok {
		return 0, false
	}
	_, ret, ok = o.Apply(s, method, args)
	return ret, ok
}

// Eval computes the return value method(args) would produce in the
// state denoted by l. ok=false if l is not allowed or the method is
// undefined there. The machine's APP rule uses Eval to resolve the
// post-stack σ2 nondeterministically chosen by BSSTEP.
func (r *Registry) Eval(l Log, obj, method string, args []int64) (ret int64, ok bool) {
	return r.EvalFrom(r.InitState(), l, obj, method, args)
}
