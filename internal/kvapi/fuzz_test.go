package kvapi

import (
	"reflect"
	"testing"

	"pushpull/internal/ops"
)

// FuzzDecodeRequest asserts request decoding is total (no panics, no
// over-reads) and that every accepted body re-encodes to a body that
// decodes to the same request — the round-trip closure property that
// keeps the client and server views of a frame identical.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []Request{
		{Type: MsgPing},
		{Type: MsgTxn, Ops: []Op{
			{Kind: OpGet, Key: 3},
			{Kind: OpPut, Key: 9, Val: -1},
		}, Session: 7, Seq: 12},
		{Type: MsgGet, Key: 1<<63 - 1},
		{Type: MsgPut, Key: 7, Val: -42},
		{Type: MsgReplPoll, Stream: 4, Seg: 2, Off: 8190, Max: 1 << 16},
		{Type: MsgTxn, Ops: []Op{
			{Kind: OpAdd, Key: 1, Val: 5},
			{Kind: OpCGet, Key: 1},
			{Kind: OpWd, Key: 1, Val: 2},
			{Kind: OpCAS, Key: 2, Val: 0, Arg: 9},
			{Kind: OpSAdd, Key: 3, Val: 7},
			{Kind: OpSRem, Key: 3, Val: 7},
			{Kind: OpSCont, Key: 3, Val: 7},
			{Kind: OpQPush, Key: 4, Val: -3},
			{Kind: OpQPop, Key: 4},
		}, Session: 9, Seq: 1},
	}
	for _, r := range seeds {
		f.Add(AppendRequest(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(MsgTxn), 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(AppendRequest(nil, seeds[1])[:5])
	// One past the last known kind: must stay a total-decode error.
	f.Add([]byte{byte(MsgTxn), 1, byte(ops.NumCodes), 3, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		again, err := DecodeRequest(AppendRequest(nil, req))
		if err != nil {
			t.Fatalf("re-encode of accepted request fails to decode: %v", err)
		}
		normalizeReqOps(&req)
		normalizeReqOps(&again)
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip diverged:\n first %+v\nsecond %+v", req, again)
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for the response side.
func FuzzDecodeResponse(f *testing.F) {
	seeds := []Response{
		{Status: StatusOK, Results: []Result{{Val: 5, Found: true}}, Retries: 2},
		{Status: StatusOK, Results: []Result{{Val: -9}}, DedupHit: true, Epoch: 3},
		{Status: StatusBusy, RetryAfterMs: 15, Msg: "queue full"},
		{Status: StatusRedirect, Redirect: "127.0.0.1:7001"},
		{Status: StatusOK, Data: []byte{1, 2, 3}, More: true, Next: true, Appends: 42},
		{Status: StatusOK, Results: []Result{{Val: 12, Found: true}}, CommuteHits: 3},
	}
	for _, r := range seeds {
		f.Add(AppendResponse(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(StatusOK), 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(AppendResponse(nil, seeds[0])[:4])

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err != nil {
			return
		}
		again, err := DecodeResponse(AppendResponse(nil, resp))
		if err != nil {
			t.Fatalf("re-encode of accepted response fails to decode: %v", err)
		}
		if len(resp.Results) == 0 {
			resp.Results = nil
		}
		if len(again.Results) == 0 {
			again.Results = nil
		}
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("round trip diverged:\n first %+v\nsecond %+v", resp, again)
		}
	})
}

func normalizeReqOps(r *Request) {
	if len(r.Ops) == 0 {
		r.Ops = nil
	}
}
