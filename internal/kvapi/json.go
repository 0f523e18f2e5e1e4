package kvapi

import (
	"fmt"

	"pushpull/internal/ops"
)

// This file is the JSON mirror of the binary protocol, used by the
// server's HTTP fallback (POST /txn) so a transaction can be submitted
// with curl while debugging. Only one-shot transactions are exposed
// over HTTP: interactive sessions are connection-scoped state, which
// maps naturally onto a TCP stream and badly onto request/response
// HTTP.

// TxnRequestJSON is the body of POST /txn.
type TxnRequestJSON struct {
	Ops []OpJSON `json:"ops"`
	// Session/Seq mirror the binary protocol's exactly-once identity
	// (0 = no session).
	Session uint64 `json:"session,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
}

// OpJSON is one operation: {"op":"get","key":7},
// {"op":"put","key":7,"val":42}, a typed op like
// {"op":"incr","key":7,"val":1}, or {"op":"cas","key":7,"val":0,"arg":9}
// (val=expect, arg=new).
type OpJSON struct {
	Op  string `json:"op"`
	Key uint64 `json:"key"`
	Val int64  `json:"val,omitempty"`
	Arg int64  `json:"arg,omitempty"`
}

// TxnResponseJSON is the body answering POST /txn.
type TxnResponseJSON struct {
	Status       string       `json:"status"`
	Results      []ResultJSON `json:"results,omitempty"`
	Retries      uint32       `json:"retries"`
	RetryAfterMs uint32       `json:"retry_after_ms,omitempty"`
	// Redirect is the address to retry against when Status is
	// "redirect" (a follower refusing a write names its primary).
	Redirect string `json:"redirect,omitempty"`
	// DedupHit marks an answer replayed from the exactly-once table.
	DedupHit bool   `json:"dedup_hit,omitempty"`
	Msg      string `json:"msg,omitempty"`
}

// ResultJSON is one operation's answer.
type ResultJSON struct {
	Val   int64 `json:"val"`
	Found bool  `json:"found"`
}

// WireOps converts the JSON form to wire ops, validating op names and
// key ranges.
func (r TxnRequestJSON) WireOps() ([]Op, error) {
	out := make([]Op, 0, len(r.Ops))
	for i, o := range r.Ops {
		d, ok := ops.ByName(o.Op)
		if !ok {
			return nil, fmt.Errorf("kvapi: op %d: unknown op %q (want get|put|incr|cget|wd|cas|sadd|srem|scont|qpush|qpop)", i, o.Op)
		}
		if err := checkKey(o.Key); err != nil {
			return nil, fmt.Errorf("kvapi: op %d: %w", i, err)
		}
		out = append(out, Op{Kind: d.Code, Key: o.Key, Val: o.Val, Arg: o.Arg})
	}
	return out, nil
}

// ToJSON converts a wire response to its JSON mirror.
func (r Response) ToJSON() TxnResponseJSON {
	out := TxnResponseJSON{
		Status:       r.Status.String(),
		Retries:      r.Retries,
		RetryAfterMs: r.RetryAfterMs,
		Redirect:     r.Redirect,
		DedupHit:     r.DedupHit,
		Msg:          r.Msg,
	}
	for _, res := range r.Results {
		out.Results = append(out.Results, ResultJSON{Val: res.Val, Found: res.Found})
	}
	return out
}
